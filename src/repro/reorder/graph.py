"""Adjacency-graph helpers shared by all reordering methods."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def adjacency_from_pattern(pattern: sp.spmatrix | sp.sparray) -> sp.csr_matrix:
    """Symmetric boolean adjacency (no self loops) from a sparsity pattern."""
    g = sp.csr_matrix(pattern)
    if g.shape[0] != g.shape[1]:
        raise ValueError(f"pattern must be square, got {g.shape}")
    # copy the index arrays: eliminate_zeros() below compacts them in
    # place, which must never corrupt the caller's matrix
    g = sp.csr_matrix(
        (np.ones(g.nnz, dtype=np.int8), g.indices.copy(), g.indptr.copy()),
        shape=g.shape,
    )
    g.setdiag(0)
    g.eliminate_zeros()
    g = (g + g.T).astype(bool).astype(np.int8)
    g.sort_indices()
    return g


def is_independent_set(adj: sp.csr_matrix, nodes: np.ndarray) -> bool:
    """True if no two vertices of *nodes* are adjacent."""
    mask = np.zeros(adj.shape[0], dtype=bool)
    mask[nodes] = True
    sub = adj[nodes]
    return not mask[sub.indices].any()
