"""Variable block row (VBR) storage for selective blocks / super-nodes.

Selective blocking (paper section 3) merges all finite-element nodes of a
contact group into one *selective block* (super-node); a node outside any
contact group forms a block of size one.  The resulting matrix is sparse
over super-nodes with dense rectangular blocks of varying size — exactly
the VBR scheme implemented here.

Blocks are stored in one flat ``data`` array with per-block offsets, and
all bulk operations (gather, expansion, factorization updates) run
*batched per block shape*: positions with identical ``(row_dofs,
col_dofs)`` shape are processed in a single vectorized numpy call.  The
paper's Fig. 22 sorts selective blocks by size for the same reason —
eliminating per-block ``if`` dispatch from the vector loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.utils.indexing import concat_ragged


def shape_buckets(shape_r: np.ndarray, shape_c: np.ndarray, positions: np.ndarray):
    """Group *positions* by their (row-size, col-size) block shape.

    Yields ``(sr, sc, pos_subset)`` with ``pos_subset`` in stable order.
    """
    if positions.size == 0:
        return
    smax = int(max(shape_r.max(), shape_c.max())) + 1
    key = shape_r[positions] * smax + shape_c[positions]
    order = np.argsort(key, kind="stable")
    sorted_pos = positions[order]
    sorted_key = key[order]
    boundaries = np.flatnonzero(np.diff(sorted_key)) + 1
    starts = np.concatenate([[0], boundaries, [sorted_pos.size]])
    for a, b in zip(starts[:-1], starts[1:]):
        k = sorted_key[a]
        yield int(k // smax), int(k % smax), sorted_pos[a:b]


@dataclass
class VBRMatrix:
    """Sparse matrix of dense variable-size blocks (CSR over super-nodes).

    Attributes
    ----------
    sizes:
        ``(N,)`` DOF count of each super-node.
    offsets:
        ``(N+1,)`` DOF offset of each super-node (cumsum of sizes).
    indptr, indices:
        Block-pattern CSR, column-sorted within each row.
    boff:
        ``(nnzb + 1,)`` offset of each block in ``data``; block ``p`` is
        ``data[boff[p]:boff[p+1]]`` reshaped to ``(sizes[row], sizes[col])``.
    data:
        Flat block storage (row-major within each block); ``None`` on a
        pattern-only object (:meth:`from_pattern`).
    """

    sizes: np.ndarray
    offsets: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    boff: np.ndarray
    data: np.ndarray | None = None
    block_rows_: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.block_rows_ = np.repeat(
            np.arange(self.N, dtype=np.int64), np.diff(self.indptr)
        )

    # -- construction ----------------------------------------------------

    @classmethod
    def from_pattern(
        cls, sizes: np.ndarray, indptr: np.ndarray, indices: np.ndarray
    ) -> "VBRMatrix":
        """Pattern-only VBR with the given super-node sizes and block
        pattern: no value storage (:meth:`empty_like` allocates it)."""
        sizes = np.asarray(sizes, dtype=np.int64)
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        brows = np.repeat(np.arange(sizes.size), np.diff(indptr))
        blen = sizes[brows] * sizes[indices]
        boff = np.concatenate([[0], np.cumsum(blen)]).astype(np.int64)
        return cls(
            sizes=sizes,
            offsets=offsets,
            indptr=indptr,
            indices=indices,
            boff=boff,
        )

    def empty_like(self) -> "VBRMatrix":
        """Zero-valued VBR sharing this matrix's structure arrays.

        Pattern arrays (sizes, offsets, indptr, indices, boff) are shared
        by reference — they are immutable by convention — so a symbolic
        object can hand out per-factorization value storage without
        duplicating any pattern work or memory.
        """
        return VBRMatrix(
            sizes=self.sizes,
            offsets=self.offsets,
            indptr=self.indptr,
            indices=self.indices,
            boff=self.boff,
            data=np.zeros(int(self.boff[-1])),
        )

    # -- structure -------------------------------------------------------

    @property
    def N(self) -> int:
        """Number of super-nodes."""
        return int(self.sizes.size)

    @property
    def ndof(self) -> int:
        return int(self.offsets[-1])

    @property
    def nnzb(self) -> int:
        return int(self.indices.size)

    def block_rows(self) -> np.ndarray:
        return self.block_rows_

    def block_keys(self) -> np.ndarray:
        """Globally sorted ``row * N + col`` key per block (for lookups)."""
        return self.block_rows_ * self.N + self.indices

    def find_blocks(self, bi: np.ndarray, bj: np.ndarray) -> np.ndarray:
        """Positions of blocks ``(bi, bj)``; -1 where absent."""
        want = np.asarray(bi, dtype=np.int64) * self.N + np.asarray(bj, dtype=np.int64)
        keys = self.block_keys()
        if keys.size == 0:
            return np.full(want.shape, -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        return np.where(keys[pos] == want, pos, -1)

    def block(self, p: int) -> np.ndarray:
        """Dense view of block at pattern position *p*."""
        i = self.block_rows_[p]
        j = self.indices[p]
        return self.data[self.boff[p] : self.boff[p + 1]].reshape(
            self.sizes[i], self.sizes[j]
        )

    def gather(self, positions: np.ndarray, sr: int, sc: int) -> np.ndarray:
        """Batched dense copy of same-shape blocks: ``(m, sr, sc)``."""
        flat = self.boff[positions, None] + np.arange(sr * sc)
        return self.data[flat].reshape(-1, sr, sc)

    def memory_bytes(self) -> int:
        return (
            (0 if self.data is None else self.data.nbytes)
            + self.indices.nbytes
            + self.indptr.nbytes
            + self.boff.nbytes
            + self.sizes.nbytes
        )

    # -- conversions -------------------------------------------------------

    def to_csr(self) -> sp.csr_matrix:
        """Expand to scalar CSR (in the VBR DOF numbering)."""
        rows_out, cols_out, vals_out = [], [], []
        all_pos = np.arange(self.nnzb, dtype=np.int64)
        shape_r = self.sizes[self.block_rows_]
        shape_c = self.sizes[self.indices]
        for sr, sc, pos in shape_buckets(shape_r, shape_c, all_pos):
            blocks = self.gather(pos, sr, sc)
            r0 = self.offsets[self.block_rows_[pos]]
            c0 = self.offsets[self.indices[pos]]
            rr = (r0[:, None, None] + np.arange(sr)[None, :, None] + np.zeros((1, 1, sc), dtype=np.int64))
            cc = (c0[:, None, None] + np.zeros((1, sr, 1), dtype=np.int64) + np.arange(sc)[None, None, :])
            rows_out.append(rr.reshape(-1))
            cols_out.append(cc.reshape(-1))
            vals_out.append(blocks.reshape(-1))
        if not rows_out:
            return sp.csr_matrix((self.ndof, self.ndof))
        m = sp.coo_matrix(
            (np.concatenate(vals_out), (np.concatenate(rows_out), np.concatenate(cols_out))),
            shape=(self.ndof, self.ndof),
        ).tocsr()
        m.sum_duplicates()
        m.sort_indices()
        return m


def supernode_maps(supernodes: list[np.ndarray], ndof: int):
    """Build inverse maps from an ordered DOF partition.

    Returns ``(snode_of, local)``: for each *original* DOF, the super-node
    it belongs to and its position inside that super-node.  Raises if the
    lists do not partition ``0..ndof-1``.
    """
    flat, offsets = concat_ragged(supernodes)
    owner = np.repeat(np.arange(len(supernodes), dtype=np.int64), np.diff(offsets))
    # owner is non-decreasing, so writing in reverse leaves each DOF's
    # lowest claimant behind; a DOF claimed again by a later super-node
    # is the overlap a one-by-one scan would trip over first
    snode_of = np.full(ndof, -1, dtype=np.int64)
    snode_of[flat[::-1]] = owner[::-1]
    later = owner > snode_of[flat]
    if later.any():
        raise ValueError(
            f"super-node {owner[later][0]} overlaps an earlier super-node"
        )
    if (snode_of < 0).any():
        raise ValueError("super-nodes do not cover all DOFs")
    local = np.empty(ndof, dtype=np.int64)
    local[flat] = np.arange(flat.size, dtype=np.int64) - offsets[owner]
    return snode_of, local

