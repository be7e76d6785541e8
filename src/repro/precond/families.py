"""The one table of preconditioner families.

Every place that lets a caller *name* a preconditioner — the CLI's
``--precond``, the serve protocol's ``precond`` field, the solver
policy's pricing, the resilience ladder, outcome recording — reads this
table instead of spelling the names itself, so a name is either known
everywhere or rejected at the boundary.  Which families a problem
admits, and in which order of robustness, is decided here too
(:func:`ladder_families`).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.precond.base import Preconditioner
from repro.precond.bic import bic
from repro.precond.diagonal import DiagonalScaling
from repro.precond.ic0 import scalar_ic0
from repro.precond.sbbic import sb_bic0

__all__ = ["DEFAULT_FAMILY", "FAMILY_TABLE", "Family", "ladder_families"]


class Family(NamedTuple):
    """One nameable preconditioner family.

    ``build(a, groups, symbolic=None, **kw)`` constructs it: *groups* are
    the contact groups (only selective blocking uses them), *symbolic* a
    cached pattern phase, *kw* goes to the family's constructor
    (``shift``, ``ncolors``, ``b``).  Every built object has
    ``refactor(a)``, a values-only rebuild on a new operator of the same
    pattern.
    """

    name: str  # what the CLI and the serve protocol call it
    stage: str  # its ladder stage label = the built object's ``name``
    build: Callable[..., Preconditioner]
    localized: bool = True  # has a per-domain form for distributed solves
    has_symbolic: bool = True  # keeps a pattern phase (``.symbolic``) worth caching


def _ic(factory, **fixed) -> Callable[..., Preconditioner]:
    return lambda a, groups, symbolic=None, **kw: factory(
        a, symbolic=symbolic, **fixed, **kw
    )


FAMILY_TABLE: dict[str, Family] = {
    f.name: f
    for f in (  # weakest first
        Family(
            "diag", "Diagonal",
            lambda a, groups, symbolic=None: DiagonalScaling(a),
            has_symbolic=False,
        ),
        Family("ic0", "IC(0) scalar", _ic(scalar_ic0), localized=False),
        Family("bic0", "BIC(0)", _ic(bic, fill_level=0)),
        Family("bic1", "BIC(1)", _ic(bic, fill_level=1)),
        Family("bic2", "BIC(2)", _ic(bic, fill_level=2)),
        Family(
            "sbbic0",
            "SB-BIC(0)",
            lambda a, groups, symbolic=None, **kw: sb_bic0(
                a, groups, symbolic=symbolic, **kw
            ),
        ),
    )
}

DEFAULT_FAMILY = "sbbic0"
"""What a solve uses when the caller names no family: the paper's."""


def ladder_families(n_groups: int, block_ok: bool) -> tuple[str, ...]:
    """The families that can lead an escalation ladder for a problem
    with *n_groups* contact groups whose DOF count is (*block_ok*) or is
    not a multiple of 3, strongest first.

    The order is the paper's robustness order (Table 2, Appendix A):
    SB-BIC(0) survives ``lambda = 1e10``, BIC(0) breaks later than
    scalar IC(0), Diagonal scaling never breaks.  Selective blocking
    needs contact groups and 3x3 blocks; the level-0 IC rung is BIC(0)
    when the blocks exist and scalar IC(0) when they do not.  The cost
    model prices exactly these, and ``build_ladder`` over this order
    runs them.
    """
    level0 = "bic0" if block_ok else "ic0"
    if n_groups > 0 and block_ok:
        return ("sbbic0", level0, "diag")
    return (level0, "diag")
