"""Sparsity-pattern utilities for the symbolic/numeric setup split.

The nonlinear contact driver rests on one observation (DESIGN.md
section 9): across ALM penalty updates and refactorizations the
*pattern* of the augmented system ``A + lambda C^T C`` is fixed, only the
values change.  The helpers here build that pattern once and map each
term's entries into it, so repeated updates become pure ``data``
scatters with no CSR canonicalization or duplicate-summing on the hot
path.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "csr_position_map",
    "csr_union_pattern",
]


def csr_union_pattern(*mats: sp.csr_matrix) -> sp.csr_matrix:
    """Canonical zero-data CSR over the union of the input patterns.

    Built from all-ones copies, so entries that would cancel exactly in a
    value sum (``a + (-a)``) still appear in the pattern — the union is
    structural, not numerical.
    """
    if not mats:
        raise ValueError("need at least one matrix")
    acc = None
    for m in mats:
        m = sp.csr_matrix(m)
        ones = sp.csr_matrix(
            (np.ones(m.nnz), m.indices, m.indptr), shape=m.shape
        )
        acc = ones if acc is None else acc + ones
    u = acc.tocsr()
    u.sum_duplicates()
    u.sort_indices()
    u.data = np.zeros_like(u.data)
    return u


def csr_position_map(sup: sp.csr_matrix, sub: sp.csr_matrix) -> np.ndarray:
    """Position in ``sup.data`` of every entry of *sub*.

    Both matrices must be canonical CSR of the same shape, and every
    entry of *sub* must exist in *sup* (raises otherwise).  With the
    returned map, ``sup.data[map] = sub.data`` (or ``+=``) performs the
    embedding with no pattern work; map entries are unique because *sub*
    is canonical.
    """
    if sup.shape != sub.shape:
        raise ValueError(f"shape mismatch: {sup.shape} vs {sub.shape}")
    n = sup.shape[1]
    sup_keys = (
        np.repeat(np.arange(sup.shape[0], dtype=np.int64), np.diff(sup.indptr)) * n
        + sup.indices
    )
    sub_keys = (
        np.repeat(np.arange(sub.shape[0], dtype=np.int64), np.diff(sub.indptr)) * n
        + sub.indices
    )
    pos = np.searchsorted(sup_keys, sub_keys)
    if (pos >= sup_keys.size).any() or not np.array_equal(sup_keys[pos], sub_keys):
        raise ValueError("sub-matrix has entries outside the super-matrix pattern")
    return pos.astype(np.int64)
