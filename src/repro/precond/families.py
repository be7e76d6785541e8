"""The one table of preconditioner families.

Every place that lets a caller *name* a preconditioner — the CLI's
``--precond``, the serve protocol's ``precond`` field, the solver
policy, the resilience ladder, outcome recording, the experiment tables
— reads this table instead of spelling the names itself, so a name is
either known everywhere or rejected at the boundary.  A family's row
holds every fact about it: its constructor and its ladder recipe.
Which families a problem admits, and in which order of robustness, is
decided here too (:func:`ladder_rungs`).
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

__all__ = ["DEFAULT_FAMILY", "FAMILY_TABLE", "Family", "PRECONDS", "SHIFTS", "ladder_families", "ladder_rungs"]

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
    pattern.
    """

    name: str  # what the CLI and the serve protocol call it
    stage: str  # its ladder stage label = the built object's ``name``
    build: Callable[..., Preconditioner]
    localized: bool = True  # has a per-domain form for distributed solves
    has_symbolic: bool = True  # keeps a pattern phase (``.symbolic``) worth caching
    blocked: bool = False  # built on b x b node blocks: takes ``b``, needs n % b == 0
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


FAMILY_TABLE: dict[str, Family] = {
    f.name: f
    for f in (  # weakest first
        Family("diag", "Diagonal", lambda a, groups, symbolic=None: DiagonalScaling(a),
               has_symbolic=False),
        Family("ic0", "IC(0) scalar", _ic(scalar_ic0), localized=False,
               shifts=SHIFTS, shift_stem="IC(0)"),
        Family("bic0", "BIC(0)", _ic(bic, fill_level=0), blocked=True,
               shifts=SHIFTS, shift_stem="BIC(0)"),
        Family("bic1", "BIC(1)", _ic(bic, fill_level=1), blocked=True),
        Family("bic2", "BIC(2)", _ic(bic, fill_level=2), blocked=True),
        Family("sbbic0", "SB-BIC(0)",
               lambda a, groups, symbolic=None, **kw: sb_bic0(a, groups, symbolic=symbolic, **kw),
               blocked=True),
    )
}

DEFAULT_FAMILY = "sbbic0"
"""What a solve uses when the caller names no family: the paper's."""

PRECONDS = (*FAMILY_TABLE, "auto")
"""Every name a caller may give (the CLI's ``--precond``, the serve
protocol's ``precond``): the family table's names plus ``auto``.
``auto`` defers the choice to the solver policy (:mod:`repro.policy`),
which resolves it to a concrete family at solve time: the first of
:func:`ladder_families`, or Diagonal scaling on an operator whose
diagonal shows almost no penalty."""


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
    The solver policy leads with these, and ``build_ladder`` over this
    order runs them."""
    return tuple(f.name for f in ladder_rungs(("sbbic0", "bic0", "diag"), n_groups, block_ok))
