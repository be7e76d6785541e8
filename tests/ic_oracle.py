"""The bucketed substitution: the correctness oracle of the flat sweep.

``BlockICFactorization.apply`` sweeps one flat plan with direct calls of
scipy's compiled CSR kernels.  This is the path it replaced, read off
the factor's own blocks (``m.L``) and inverse pivots (``m._dinv``): per
schedule group and block shape, a gather, a batched matmul and a
scatter-add.  ``apply`` must agree with it to ~1e-13.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.vbr import shape_buckets


def _scatter_add(vec: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    """``vec[idx] += vals`` with duplicate indices, picking the faster path.

    ``bincount`` materializes a dense ``vec.size`` array, so it only wins
    when the scatter is dense relative to the target; small scatters into
    large vectors would pay an O(n) allocation for O(idx.size) work.
    """
    if idx.size > vec.size // 4:
        vec += np.bincount(idx, weights=vals, minlength=vec.size)
    else:
        np.add.at(vec, idx, vals)


def _gather_dinv(m, snodes: np.ndarray, s: int) -> np.ndarray:
    flat = m.symbolic.dinv_off[snodes, None] + np.arange(s * s)
    return m._dinv[flat].reshape(-1, s, s)


def bucketed(m):
    """``r -> M^{-1} r`` by the bucketed substitution over the factor
    *m* holds now: its blocks are gathered here, so build it again
    after a ``refactor``."""
    L, sizes, schedule = m.L, m.sizes, m.schedule
    group_of = m.symbolic.group_of
    brow = L.block_rows()
    offdiag = m.symbolic._offdiag_positions()
    shape_r = sizes[brow]
    shape_c = sizes[L.indices]

    ngroups = len(schedule)
    fwd: list[list[tuple]] = [[] for _ in range(ngroups)]
    bwd: list[list[tuple]] = [[] for _ in range(ngroups)]
    row_group = group_of[brow[offdiag]]
    col_group = group_of[L.indices[offdiag]]
    for g in range(ngroups):
        pos_g = offdiag[row_group == g]
        for sr, sc, pos in shape_buckets(shape_r, shape_c, pos_g):
            blocks = L.gather(pos, sr, sc)
            ridx = (L.offsets[brow[pos], None] + np.arange(sr)).reshape(-1)
            cidx = L.offsets[L.indices[pos], None] + np.arange(sc)
            fwd[g].append((blocks, ridx, cidx))
        pos_g = offdiag[col_group == g]
        for sr, sc, pos in shape_buckets(shape_r, shape_c, pos_g):
            blocks_t = np.ascontiguousarray(L.gather(pos, sr, sc).transpose(0, 2, 1))
            ridx = L.offsets[brow[pos], None] + np.arange(sr)
            cidx = (L.offsets[L.indices[pos], None] + np.arange(sc)).reshape(-1)
            bwd[g].append((blocks_t, ridx, cidx))

    # diagonal buckets: (s, dinv blocks, flat dof index) per group
    diag: list[list[tuple]] = [[] for _ in range(ngroups)]
    for g, members in enumerate(schedule):
        for s, _sc, rows in shape_buckets(sizes, sizes, members):
            dof = (L.offsets[rows, None] + np.arange(s)).reshape(-1)
            diag[g].append((_gather_dinv(m, rows, s), dof, s))

    def apply(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (m.ndof,):
            raise ValueError(f"r must have shape ({m.ndof},), got {r.shape}")
        n = m.ndof
        y = np.zeros(n)
        acc = r[m.perm_dof]
        # forward: (D + L) y = r
        for g in range(ngroups):
            for blocks, ridx, cidx in fwd[g]:
                contrib = np.matmul(blocks, y[cidx][..., None])[..., 0]
                _scatter_add(acc, ridx, -contrib.reshape(-1))
            for dinv, dof, s in diag[g]:
                seg = acc[dof].reshape(-1, s)
                y[dof] = np.matmul(dinv, seg[..., None])[..., 0].reshape(-1)
        # backward: z = y - D^{-1} L^T z
        z = np.zeros(n)
        acc2 = np.zeros(n)
        for g in range(ngroups - 1, -1, -1):
            for blocks_t, ridx, cidx in bwd[g]:
                contrib = np.matmul(blocks_t, z[ridx][..., None])[..., 0]
                _scatter_add(acc2, cidx, contrib.reshape(-1))
            for dinv, dof, s in diag[g]:
                seg = acc2[dof].reshape(-1, s)
                corr = np.matmul(dinv, seg[..., None])[..., 0].reshape(-1)
                z[dof] = y[dof] - corr
        out = np.empty(n)
        out[m.perm_dof] = z
        return out

    return apply


def reference_apply(m, r: np.ndarray) -> np.ndarray:
    """``M^{-1} r`` by the bucketed substitution over *m*'s factor."""
    return bucketed(m)(r)
