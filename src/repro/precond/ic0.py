"""Scalar (point-wise) IC(0) — Table 2's "IC(0) (Scalar Type)"."""

from __future__ import annotations

import numpy as np

from repro.precond.icfact import BlockICFactorization, ICSymbolic


def scalar_ic0(
    a,
    *,
    ncolors: int = 0,
    shift: float = 0.0,
    symbolic: ICSymbolic | None = None,
) -> BlockICFactorization:
    """Point incomplete Cholesky with no fill: every DOF is its own block.

    This ignores the 3x3 block structure of the elastic stiffness matrix,
    which is why the paper shows it failing on large-penalty problems
    where BIC(0) still converges (Table 2).  ``shift`` adds a
    Manteuffel-style diagonal shift before pivot inversion (the classic
    shifted-IC retry for exactly this failure mode).  ``symbolic`` reuses
    a cached pattern phase from an earlier same-pattern factorization.
    """
    ndof = a.shape[0]
    supernodes = (
        None if symbolic is not None else [np.array([d]) for d in range(ndof)]
    )
    name = "IC(0) scalar" if shift == 0.0 else f"IC(0) scalar+shift{shift:g}"
    return BlockICFactorization(
        a,
        supernodes,
        fill_level=0,
        ncolors=ncolors,
        shift=shift,
        name=name,
        symbolic=symbolic,
    )
