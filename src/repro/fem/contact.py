"""Penalty / MPC coupling of contact groups (paper section 5.1, Fig. 24).

Each contact group's nodes sit at identical locations and are "coupled
tightly in any direction" by a penalty lambda: GeoFEM inserts 111-type
rod elements of very large stiffness between group members.  The matrix
stencil of Fig. 24 — diagonal ``(m-1) * lambda`` and ``-lambda`` to every
other member, per displacement component — is the graph Laplacian of the
complete graph on the group, Kronecker the 3x3 identity.  That is what
:func:`assemble_penalty_groups` builds.
"""

from __future__ import annotations

import numpy as np

from repro.core.selective_blocking import validate_groups
from repro.sparse.bcsr import BCSRMatrix
from repro.utils.indexing import concat_ragged, ranges


def penalty_coo_blocks(
    groups: list[np.ndarray], lam: float, n_nodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block triplets of the penalty matrix for all contact groups."""
    if lam < 0:
        raise ValueError(f"penalty must be non-negative, got {lam}")
    groups = validate_groups(groups, n_nodes)
    flat, offsets = concat_ragged(groups)
    # every member paired with its whole group, member-major as in Fig. 24
    sizes = np.diff(offsets)
    m = np.repeat(sizes, sizes)  # group size, per member
    rows = np.repeat(flat, m)
    cols = flat[ranges(np.repeat(offsets[:-1], sizes), m)]
    coef = np.where(rows == cols, (np.repeat(m, m) - 1) * lam, -lam)
    return rows, cols, coef[:, None, None] * np.eye(3)


def penalty_scalars(k: BCSRMatrix, groups: list[np.ndarray]) -> np.ndarray:
    """``(nnzb, 3, 3)`` mask of the scalars of *k* the penalty of *groups*
    writes, whatever its magnitude: the diagonal of every block coupling
    two members of one group (the other six scalars of a ``lambda * I``
    block are explicit zeros nobody needs to store)."""
    flat, offsets = concat_ragged(groups)
    group_of = np.full(k.n, -1, dtype=np.int64)
    group_of[flat] = np.repeat(np.arange(len(groups)), np.diff(offsets))
    gi = group_of[k.block_rows()]
    return ((gi >= 0) & (gi == group_of[k.indices]))[:, None, None] & np.eye(3, dtype=bool)


def assemble_penalty_groups(
    groups: list[np.ndarray], lam: float, n_nodes: int
) -> BCSRMatrix:
    """Penalty stiffness matrix (positive semi-definite) over all groups."""
    rows, cols, blocks = penalty_coo_blocks(groups, lam, n_nodes)
    return BCSRMatrix.from_coo_blocks(n_nodes, rows, cols, blocks, b=3)


def add_penalty(
    k: BCSRMatrix, groups: list[np.ndarray], lam: float
) -> BCSRMatrix:
    """Stiffness plus contact penalty, as one BCSR matrix."""
    rows, cols, blocks = penalty_coo_blocks(groups, lam, k.n)
    all_rows = np.concatenate([k.block_rows(), rows])
    all_cols = np.concatenate([k.indices, cols])
    all_blocks = np.concatenate([k.values, blocks]) if rows.size else k.values
    return BCSRMatrix.from_coo_blocks(k.n, all_rows, all_cols, all_blocks, b=k.b)


def constraint_matrix(groups: list[np.ndarray], n_nodes: int):
    """Signed incidence (constraint) matrix C with rows ``u_i - u_j = 0``.

    One row per (consecutive-pair, component): group ``(a, b, c)`` yields
    constraints ``u_a - u_b`` and ``u_b - u_c`` in x, y, z.  Used by the
    augmented-Lagrange driver; ``C^T C`` has the same kernel as the
    Fig. 24 penalty Laplacian.
    """
    import scipy.sparse as sp

    groups = validate_groups(groups, n_nodes)
    rows, cols, data = [], [], []
    nrow = 0
    for g in groups:
        for a, b in zip(g[:-1], g[1:]):
            for comp in range(3):
                rows.extend([nrow, nrow])
                cols.extend([3 * a + comp, 3 * b + comp])
                data.extend([1.0, -1.0])
                nrow += 1
    return sp.csr_matrix(
        (data, (rows, cols)), shape=(nrow, 3 * n_nodes)
    )
