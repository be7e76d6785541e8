"""The one table of preconditioner families.

Every place that lets a caller *name* a preconditioner — the CLI's
``--precond``, the serve protocol's ``precond`` field, the solver
policy's ranking, the resilience ladder, outcome recording — reads this
table instead of spelling the names itself, so a name is either known
everywhere or rejected at the boundary.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.precond.base import Preconditioner
from repro.precond.bic import bic
from repro.precond.diagonal import DiagonalScaling
from repro.precond.ic0 import scalar_ic0
from repro.precond.sbbic import sb_bic0

__all__ = ["FAMILY_TABLE", "Family", "family_of_stage"]


class Family(NamedTuple):
    """One nameable preconditioner family.

    ``build(a, groups, symbolic=None, **kw)`` constructs it: *groups* are
    the contact groups (only selective blocking uses them), *symbolic* a
    cached pattern phase, *kw* goes to the family's constructor
    (``shift``, ``ncolors``, ``b``).
    """

    name: str  # what the CLI and the serve protocol call it
    stage: str  # its ladder stage label = the built object's ``name``
    build: Callable[..., Preconditioner]
    localized: bool = True  # has a per-domain form for distributed solves
    ranked: bool = True  # the solver policy may lead a ladder with it


def _ic(factory, **fixed) -> Callable[..., Preconditioner]:
    return lambda a, groups, symbolic=None, **kw: factory(
        a, symbolic=symbolic, **fixed, **kw
    )


FAMILY_TABLE: dict[str, Family] = {
    f.name: f
    for f in (  # weakest first
        Family("diag", "Diagonal", lambda a, groups, symbolic=None: DiagonalScaling(a)),
        Family("ic0", "IC(0) scalar", _ic(scalar_ic0), localized=False),
        Family("bic0", "BIC(0)", _ic(bic, fill_level=0)),
        Family("bic1", "BIC(1)", _ic(bic, fill_level=1), ranked=False),
        Family("bic2", "BIC(2)", _ic(bic, fill_level=2), ranked=False),
        Family(
            "sbbic0",
            "SB-BIC(0)",
            lambda a, groups, symbolic=None, **kw: sb_bic0(
                a, groups, symbolic=symbolic, **kw
            ),
        ),
    )
}

# a stage is known by its family name, its label, and the label's first
# word (the ladder's shifted scalar rungs are "IC(0)+shift…")
_FAMILY_OF = {
    key: f.name
    for f in FAMILY_TABLE.values()
    for key in (f.name, f.stage, f.stage.split()[0])
}


def family_of_stage(stage_name: str) -> str | None:
    """Map a ladder stage name (or a family name) to its family.

    Shifted retries count toward their base family (``BIC(0)+shift0.01``
    -> ``bic0``): the shift schedule is part of the rung the policy
    chose, not a separate choice to learn.
    """
    return _FAMILY_OF.get(stage_name.split("+", 1)[0])
