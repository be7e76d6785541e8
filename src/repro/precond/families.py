"""The one table of preconditioner families.

Every place that lets a caller *name* a preconditioner — the CLI's
``--precond``, the serve protocol's ``precond`` field, the solver
policy's pricing, the resilience ladder, outcome recording, the
experiment tables — reads this table instead of spelling the names
itself, so a name is either known everywhere or rejected at the
boundary.  A family's row holds every fact about it: its constructor,
its cost priors and its ladder recipe.  Which families a problem admits,
and in which order of robustness, is decided here too
(:func:`ladder_rungs`).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.precond.base import Preconditioner
from repro.precond.bic import bic
from repro.precond.diagonal import DiagonalScaling
from repro.precond.ic0 import scalar_ic0
from repro.precond.localized import PrecondFactory, restrict_groups
from repro.precond.sbbic import sb_bic0

__all__ = ["DEFAULT_FAMILY", "FAMILY_TABLE", "Family", "SHIFTS", "ladder_families", "ladder_rungs"]

SHIFTS = (0.01, 0.1)
"""The Manteuffel shifts of the level-0 IC rung's retries, as fractions
of the mean |diagonal|."""


class Family(NamedTuple):
    """One nameable preconditioner family.

    ``build(a, groups, symbolic=None, **kw)`` constructs it: *groups* are
    the contact groups (only selective blocking uses them), *symbolic* a
    cached pattern phase, *kw* goes to the family's constructor
    (``shift``, ``name``, ``ncolors``, ``b``).  Every built object has
    ``refactor(a)``, a values-only rebuild on a new operator of the same
    pattern.  The cost priors are what :mod:`repro.policy.cost` prices
    (a row without ``setup_passes`` is never priced); ``census`` names
    the phases one CG iteration runs besides ``A p`` and BLAS-1.
    """

    name: str  # what the CLI and the serve protocol call it
    stage: str  # its ladder stage label = the built object's ``name``
    build: Callable[..., Preconditioner]
    localized: bool = True  # has a per-domain form for distributed solves
    has_symbolic: bool = True  # keeps a pattern phase (``.symbolic``) worth caching
    blocked: bool = False  # built on b x b node blocks: takes ``b``, needs n % b == 0
    # cost priors (Table 2-shaped; provenance at FAMILY_TABLE)
    setup_passes: tuple[int, int] | None = None  # (symbolic, numeric) matvec passes
    kappa_divisor: float = 1.0  # spectrum compression over Jacobi scaling
    risk_knee: float | None = None  # penalty ratio where the factorization breaks
    census: tuple[str, ...] = ()  # "substitution", "block_solves", "scaling"
    penalty_free_kappa: bool = False  # kappa capped at the penalty-free operator's
    # ladder recipe: the retries after the plain rung, labelled shifted_stage
    shifts: tuple[float, ...] = ()
    shift_stem: str = ""

    def shifted_stage(self, alpha: float) -> str:
        """The ladder label of the retry shifted by *alpha*."""
        return f"{self.shift_stem}+shift{alpha:g}"

    def per_domain(self, groups: list[np.ndarray], n_nodes: int, **kw) -> PrecondFactory:
        """The family as a per-domain factory ``(sub, nodes)`` for
        :class:`~repro.precond.localized.LocalizedPreconditioner` and
        ``DistributedSystem.from_global``: each domain's matrix gets the
        contact groups restricted to its *nodes* (of *n_nodes*)."""
        return lambda sub, nodes: self.build(sub, restrict_groups(groups, nodes, n_nodes), **kw)


def _ic(factory, **fixed) -> Callable[..., Preconditioner]:
    return lambda a, groups, symbolic=None, **kw: factory(
        a, symbolic=symbolic, **fixed, **kw
    )


# ``setup_passes`` are measured, not derived: ``symbolic_seconds`` /
# ``numeric_seconds`` of the built factor divided by the seconds of one
# CSR ``a @ x`` on the same operator (best of 3 builds, one BLAS thread),
# on block 0.8 / 1.0 / 1.5 and swjapan 1.0 / 1.5 / 2.0 at
# ``lambda = 1e6`` (2.2k-19.9k DOF); the rows hold the medians.  Ranges
# seen: SB-BIC(0) 129-236 / 28-58, BIC(0) 125-214 / 26-48, scalar IC(0)
# 365-541 / 24-35, Diagonal 0 / 1.9-4.8; the high ends are the block
# problems, whose matvec — the unit — got up to 46 % cheaper when the
# assembly stopped storing round-off zeros, the low ends swjapan 1.5 /
# 2.0.  The set-up/iteration ratio the ranking depends on: SB-BIC(0)
# 49-93, BIC(0) 50-88, IC(0) 111-165, Diagonal 1.7-3.1 iterations per
# set-up across the range.  The counts belong to this implementation's
# colour-batched numpy factorization (numeric phase: update sweeps plus
# one gather, no fold); re-measure them when the set-up path changes
# (DESIGN.md section 15 has the table and
# ``benchmarks/test_bench_policy.py`` the 3x host check).
# ``kappa_divisor``: level-0 IC against plain Jacobi scaling, the block
# form slightly stronger.  ``risk_knee``: scalar IC breaks first, BIC
# later, SB-BIC effectively never.
FAMILY_TABLE: dict[str, Family] = {
    f.name: f
    for f in (  # weakest first
        Family("diag", "Diagonal", lambda a, groups, symbolic=None: DiagonalScaling(a),
               has_symbolic=False, setup_passes=(0, 3), census=("scaling",)),
        Family("ic0", "IC(0) scalar", _ic(scalar_ic0), localized=False,
               setup_passes=(430, 28), kappa_divisor=8.0, risk_knee=1e5,
               census=("substitution",), shifts=SHIFTS, shift_stem="IC(0)"),
        Family("bic0", "BIC(0)", _ic(bic, fill_level=0), blocked=True,
               setup_passes=(185, 40), kappa_divisor=20.0, risk_knee=1e7,
               census=("substitution",), shifts=SHIFTS, shift_stem="BIC(0)"),
        Family("bic1", "BIC(1)", _ic(bic, fill_level=1), blocked=True),
        Family("bic2", "BIC(2)", _ic(bic, fill_level=2), blocked=True),
        Family("sbbic0", "SB-BIC(0)",
               lambda a, groups, symbolic=None, **kw: sb_bic0(a, groups, symbolic=symbolic, **kw),
               blocked=True, setup_passes=(200, 45), kappa_divisor=20.0,
               census=("substitution", "block_solves"), penalty_free_kappa=True),
    )
}

DEFAULT_FAMILY = "sbbic0"
"""What a solve uses when the caller names no family: the paper's."""


def ladder_rungs(order: tuple[str, ...], n_groups: int, block_ok: bool) -> list[Family]:
    """The families a ladder asked to lead with *order* runs on a problem
    with *n_groups* contact groups whose DOF count is (*block_ok*) or is
    not a multiple of the block size.

    Selective blocking needs contact groups and blocks; ``bic0`` and
    ``ic0`` both ask for the level-0 IC rung, BIC(0) when the blocks
    exist and scalar IC(0) when they do not; Diagonal scaling, which
    never breaks, is always last, whatever *order* says.  Other names
    (the deep-fill BIC(k)) lead no ladder and are skipped.
    """
    level0, backstop = FAMILY_TABLE["bic0" if block_ok else "ic0"], FAMILY_TABLE["diag"]
    admitted = {"bic0": level0, "ic0": level0, backstop.name: backstop}
    if n_groups > 0 and block_ok:
        admitted["sbbic0"] = FAMILY_TABLE["sbbic0"]
    rungs: list[Family] = []
    for name in (*order, backstop.name):  # the backstop, unless already last
        family = admitted.get(name)
        if family is not None and not (family is backstop and rungs and rungs[-1] is backstop):
            rungs.append(family)
    return rungs


def ladder_families(n_groups: int, block_ok: bool) -> tuple[str, ...]:
    """:func:`ladder_rungs` of the paper's robustness order (Table 2,
    Appendix A: SB-BIC(0) survives ``lambda = 1e10``, BIC(0) breaks later
    than scalar IC(0), Diagonal scaling never breaks), strongest first.
    The cost model prices exactly these, and ``build_ladder`` over this
    order runs them."""
    return tuple(f.name for f in ladder_rungs(("sbbic0", "bic0", "diag"), n_groups, block_ok))
