"""Block IC(k): 3x3 node blocks with level-of-fill k (BIC(0)/(1)/(2))."""

from __future__ import annotations

import numpy as np

from repro.precond.icfact import BlockICFactorization, ICSymbolic


def node_supernodes(n_nodes: int, b: int = 3) -> list[np.ndarray]:
    """One super-node per finite-element node (the BIC block layout)."""
    base = np.arange(n_nodes, dtype=np.int64) * b
    return [base[i] + np.arange(b) for i in range(n_nodes)]


def bic(
    a,
    *,
    fill_level: int = 0,
    b: int = 3,
    ncolors: int = 0,
    shift: float = 0.0,
    symbolic: ICSymbolic | None = None,
    name: str | None = None,
) -> BlockICFactorization:
    """Block incomplete Cholesky with ``b x b`` node blocks.

    ``fill_level`` 0/1/2 gives the paper's BIC(0)/BIC(1)/BIC(2).  The
    diagonal 3x3 blocks are inverted exactly (full LU of each block),
    which is what lets BIC(0) survive penalty values that break scalar
    IC(0) (Table 2).  ``shift`` adds a Manteuffel-style ``alpha I`` to
    each diagonal block before inversion (robustness retry knob used by
    the resilience fallback chain; 0 reproduces the paper).  ``symbolic``
    reuses a cached pattern phase from an earlier factorization of a
    same-pattern matrix — only the numeric phase runs.  ``name`` labels
    the factor (and its ``ic_numeric`` span) instead of the default.
    """
    ndof = a.shape[0]
    if ndof % b:
        raise ValueError(f"matrix dimension {ndof} is not a multiple of block size {b}")
    if name is None:
        name = f"BIC({fill_level})" if shift == 0.0 else f"BIC({fill_level})+shift{shift:g}"
    return BlockICFactorization(
        a,
        None if symbolic is not None else node_supernodes(ndof // b, b),
        fill_level=fill_level,
        ncolors=ncolors,
        shift=shift,
        name=name,
        symbolic=symbolic,
    )
