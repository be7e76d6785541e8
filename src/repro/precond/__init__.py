"""Preconditioners for the GeoFEM CG solvers.

All of Table 2's preconditioners are here:

- :class:`~repro.precond.diagonal.DiagonalScaling` — point Jacobi.
- :func:`~repro.precond.ic0.scalar_ic0` — scalar (1x1 block) IC(0).
- :func:`~repro.precond.bic.bic` — block IC(k) with 3x3 node blocks and
  level-of-fill k = 0, 1, 2 (BIC(0)/BIC(1)/BIC(2)).
- :func:`~repro.precond.sbbic.sb_bic0` — SB-BIC(0): block IC(0) after
  selective blocking reordering, full LU inside each selective block.
- :class:`~repro.precond.localized.LocalizedPreconditioner` — the
  domain-wise (block Jacobi) localization used in parallel runs.

:data:`~repro.precond.families.FAMILY_TABLE` is the one place their
CLI / protocol / ladder names are listed, and
:func:`~repro.precond.families.ladder_families` the one place their
robustness order is.  The IC variants all delegate to one engine,
:class:`~repro.precond.icfact.BlockICFactorization`: a color-wise batched
incomplete Cholesky over variable-size super-node blocks.
"""

from repro.precond.base import Preconditioner, IdentityPreconditioner
from repro.precond.diagonal import DiagonalScaling
from repro.precond.icfact import BlockICFactorization, ICSymbolic
from repro.precond.ic0 import scalar_ic0
from repro.precond.bic import bic
from repro.precond.sbbic import sb_bic0
from repro.precond.localized import LocalizedPreconditioner
from repro.precond.twolevel import CoarseCorrection, rigid_body_operator
from repro.precond.families import DEFAULT_FAMILY, FAMILY_TABLE, PRECONDS, Family, ladder_families

__all__ = [
    "DEFAULT_FAMILY",
    "FAMILY_TABLE",
    "Family",
    "PRECONDS",
    "ladder_families",
    "CoarseCorrection",
    "rigid_body_operator",
    "Preconditioner",
    "IdentityPreconditioner",
    "DiagonalScaling",
    "BlockICFactorization",
    "ICSymbolic",
    "scalar_ic0",
    "bic",
    "sb_bic0",
    "LocalizedPreconditioner",
]
