"""The affine operator ``A(lambda) = A0 + lambda * A1`` on one fixed pattern.

Every contact system here is the stiffness plus the paper's penalty
lambda times a fixed coupling (the group Laplacian of Fig. 24, or the
ALM's ``C^T C``, Fig. 2).  Only lambda changes between the systems of a
penalty sweep or of ALM back-offs, so a new lambda is a values-only
write into one CSR object, whose identity an IC-family ``refactor``
checks instead of the pattern.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from repro.utils.indexing import ranges
from repro.utils.validate import check_square_csr

__all__ = ["AffineOperator"]


class AffineOperator:
    """``A0 + lambda * A1`` for any non-negative finite lambda.

    ``a0`` lives on the structural union of the two patterns (explicit
    zeros where only ``A1`` writes, and an entry whose values would
    cancel stays); it is the operand itself when ``A1``'s pattern lies
    inside ``A0``'s.  ``a1`` keeps its own entries.
    :meth:`at` writes into, and returns, the *same* CSR object every
    time: callers finish with one system before materializing the next.
    """

    def __init__(self, a0: sp.spmatrix, a1: sp.spmatrix) -> None:
        a0, a1 = check_square_csr(a0, "A0"), check_square_csr(a1, "A1")
        if a0.shape != a1.shape:
            raise ValueError(f"shape mismatch: {a0.shape} vs {a1.shape}")
        map1 = _positions(a0, a1)
        if map1 is None:  # A1 reaches outside A0's pattern: embed A0 in the union
            union = _ones(a0) + _ones(a1)
            union.sum_duplicates()
            data = np.zeros(union.nnz)
            data[_positions(union, a0)] = a0.data
            a0 = sp.csr_matrix((data, union.indices, union.indptr), shape=union.shape)
            map1 = _positions(a0, a1)
        self.a0, self.a1, self._map1 = a0, a1, map1
        self._out = sp.csr_matrix((a0.data.copy(), a0.indices, a0.indptr), shape=a0.shape)
        self._out.has_canonical_format = True

    def at(self, lam: float) -> sp.csr_matrix:
        """``A0 + lam * A1``: one copy and one fancy-index update."""
        if not (math.isfinite(lam) and lam >= 0):
            raise ValueError(f"penalty must be non-negative and finite, got {lam}")
        data = self._out.data
        data[:] = self.a0.data
        data[self._map1] += lam * self.a1.data
        return self._out


def _ones(m: sp.csr_matrix) -> sp.csr_matrix:
    return sp.csr_matrix((np.ones(m.nnz), m.indices, m.indptr), shape=m.shape)


def _positions(sup: sp.csr_matrix, sub: sp.csr_matrix) -> np.ndarray | None:
    """Position in ``sup.data`` of every entry of canonical *sub*, or
    ``None`` when one is not in canonical *sup*'s pattern.  Only the rows
    where *sub* stores entries are searched."""
    rows = np.flatnonzero(np.diff(sub.indptr))
    lengths = np.diff(sup.indptr)[rows]
    pos = ranges(sup.indptr[rows], lengths)
    row_key = np.arange(rows.size, dtype=np.int64) * sup.shape[1]
    keys = np.repeat(row_key, lengths) + sup.indices[pos]
    wanted = np.repeat(row_key, np.diff(sub.indptr)[rows]) + sub.indices
    found = np.searchsorted(keys, wanted)
    if (found >= keys.size).any() or not np.array_equal(keys[found], wanted):
        return None
    return pos[found]
