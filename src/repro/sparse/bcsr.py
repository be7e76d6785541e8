"""Uniform block compressed sparse row (BCSR) matrices with 3x3 blocks.

GeoFEM assembles elastic stiffness matrices with one dense ``ndof x ndof``
block per pair of connected finite-element nodes (``ndof`` = 3 in 3-D).
This module provides that assembly-level container plus the conversions
the rest of the stack needs: scipy BSR/CSR views for fast matvecs and
the node adjacency graph the orderings start from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro.utils.indexing import SETUP_CHUNK, chunks
from repro.utils.validate import check_index_array


@dataclass
class BCSRMatrix:
    """Square sparse matrix of dense ``b x b`` blocks in CSR-of-blocks layout.

    Attributes
    ----------
    n:
        Number of block rows (= block columns = FEM nodes).
    b:
        Block edge length (3 for 3-D solid mechanics).
    indptr, indices:
        CSR structure over blocks; ``indices`` is column-sorted within
        each row and includes the diagonal block of every row.
    values:
        ``(nnzb, b, b)`` dense block values.
    """

    n: int
    b: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    _bsr_cache: sp.bsr_matrix | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- construction ---------------------------------------------------

    @classmethod
    def from_block_pairs(
        cls, n: int, rows, cols, b: int = 3
    ) -> tuple["BCSRMatrix", np.ndarray]:
        """Zero matrix on the pattern of the block pairs ``(rows, cols)``,
        and the slot of each pair in its ``values``.

        *rows* and *cols* are integer arrays broadcast against each
        other (the pairs in C order), or equally long lists of such
        arrays whose pairs follow one another — ``hexes[:, :, None]``
        and ``hexes[:, None, :]`` are the 64 node pairs of every
        hexahedron, keyed where they are, with no copy joined to the
        next list.  Every diagonal block is in the pattern (whether
        listed or not) so the preconditioners can always address
        ``A[i, i]``.  The pattern comes from the pairs alone: what is
        summed into the slots later (:meth:`add_blocks`) never has to
        exist all at once.
        """
        if not isinstance(rows, list):
            rows, cols = [rows], [cols]
        shapes = [np.broadcast_shapes(np.shape(r), np.shape(c)) for r, c in zip(rows, cols)]
        npairs = sum(int(np.prod(shape)) for shape in shapes)
        # one key r * n + c per pair, then one per diagonal block
        key = np.empty(npairs + n, dtype=np.int64)
        at = 0
        for r, c, shape in zip(rows, cols, shapes):
            r, c = np.asarray(r), np.asarray(c)
            check_index_array(r.reshape(-1), n, "block rows")
            check_index_array(c.reshape(-1), n, "block cols")
            part = key[at : at + int(np.prod(shape))].reshape(shape)
            np.multiply(r, n, out=part, dtype=np.int64)
            part += c
            at += part.size
        key[at:] = np.arange(n, dtype=np.int64) * (n + 1)
        # one sort finds the pattern and the slot of each pair; the
        # sorted keys turn into the running count of distinct ones, so
        # no more than three key-sized arrays live at once
        order = np.argsort(key)
        key = key.take(order)
        first = np.empty(key.size, dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        uniq = key[first]
        np.cumsum(first, out=key)
        key -= 1
        slot = np.empty_like(order)
        slot[order] = key
        del order, key
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(uniq // n, minlength=n), out=indptr[1:])
        mat = cls(n=n, b=b, indptr=indptr, indices=uniq % n, values=np.zeros((uniq.size, b, b)))
        return mat, slot[:npairs]

    def add_blocks(self, slot: np.ndarray, blocks: np.ndarray) -> None:
        """``values[slot[t]] += blocks[t]`` for ``t = 0, 1, ...``, in that
        order whatever else was or will be added — so a sum does not
        depend on how its terms were batched.

        One compiled pass adds whole blocks: the slot-by-block selection
        matrix (a single ``1.0`` per column) times the blocks,
        accumulated into ``values`` in place.
        """
        nt, b = slot.size, self.b
        blocks = np.ascontiguousarray(blocks, dtype=np.float64)
        if blocks.shape != (nt, b, b):
            raise ValueError(f"blocks must have shape ({nt}, {b}, {b}), got {blocks.shape}")
        _sparsetools.csc_matvecs(
            self.nnzb, nt, b * b, np.arange(nt + 1, dtype=slot.dtype), slot, np.ones(nt),
            blocks.reshape(-1), self.values.reshape(-1),
        )

    @classmethod
    def from_coo_blocks(
        cls,
        n: int,
        rows: np.ndarray,
        cols: np.ndarray,
        blocks: np.ndarray,
        b: int = 3,
    ) -> "BCSRMatrix":
        """Build from block triplets, summing duplicates in input order."""
        mat, slot = cls.from_block_pairs(n, rows, cols, b)
        mat.add_blocks(slot, blocks)
        return mat

    @classmethod
    def from_scipy(cls, a: sp.spmatrix | sp.sparray, b: int = 3) -> "BCSRMatrix":
        """Build from any scipy sparse matrix of shape ``(n*b, n*b)``."""
        a = sp.csr_matrix(a)
        if a.shape[0] != a.shape[1] or a.shape[0] % b:
            raise ValueError(f"matrix shape {a.shape} is not square with block size {b}")
        n = a.shape[0] // b
        bsr = a.tobsr(blocksize=(b, b))
        bsr.sort_indices()
        return cls(
            n=n,
            b=b,
            indptr=bsr.indptr.astype(np.int64),
            indices=bsr.indices.astype(np.int64),
            values=np.ascontiguousarray(bsr.data, dtype=np.float64),
        )

    # -- basic properties ------------------------------------------------

    @property
    def nnzb(self) -> int:
        """Number of stored blocks."""
        return int(self.indices.size)

    @property
    def ndof(self) -> int:
        """Scalar dimension ``n * b``."""
        return self.n * self.b

    def memory_bytes(self) -> int:
        """Bytes of the value + index arrays (the Table 2/4 memory census)."""
        return self.values.nbytes + self.indices.nbytes + self.indptr.nbytes

    # -- conversions -----------------------------------------------------

    def to_bsr(self) -> sp.bsr_matrix:
        """Scipy BSR view sharing this matrix's arrays (fast matvec path).

        The handle is cached: it shares ``values``, so in-place value
        updates remain visible through it, and repeated matvecs stop
        paying a scipy wrapper construction per call.
        """
        if self._bsr_cache is None:
            self._bsr_cache = sp.bsr_matrix(
                (self.values, self.indices, self.indptr),
                shape=(self.ndof, self.ndof),
            )
        return self._bsr_cache

    def to_csr(self, keep: np.ndarray | None = None) -> sp.csr_matrix:
        """Scalar CSR copy (sorted, duplicate-free); with the
        ``(nnzb, b, b)`` mask *keep*, of the scalars it marks only."""
        csr = self.to_bsr().tocsr() if keep is None else self._kept_csr(keep)
        # block columns are sorted and unique within each row (class
        # invariant), so the expanded rows are canonical already
        csr.has_canonical_format = True
        return csr

    def _kept_csr(self, keep: np.ndarray) -> sp.csr_matrix:
        """The scalars *keep* marks, as CSR: counted first, then copied
        into the preallocated arrays one block-row range at a time, so
        that neither the mask nor the values are ever expanded whole."""
        b, n, bptr = self.b, self.n, self.indptr
        keep = np.ascontiguousarray(keep, dtype=bool).reshape(self.nnzb, b, b)
        runs = chunks(n, max(self.nnzb // 16, SETUP_CHUNK // (b * b)), bptr)
        # kept scalars per scalar row: per block and inner row (a sum of
        # b bytes), then over each block row's blocks as differences of a
        # running sum
        per_row = np.empty((n, b), dtype=np.int64)
        for rows in runs:
            p0 = bptr[rows.start]
            byte = keep[p0 : bptr[rows.stop]].view(np.uint8)
            per_block = byte[:, :, 0].copy()
            for c in range(1, b):
                per_block += byte[:, :, c]
            ends = np.zeros((per_block.shape[0] + 1, b), dtype=np.int64)
            np.cumsum(per_block, axis=0, out=ends[1:])
            per_row[rows] = np.diff(ends[bptr[rows.start : rows.stop + 1] - p0], axis=0)
        indptr = np.zeros(n * b + 1, dtype=np.int64)
        np.cumsum(per_row.reshape(-1), out=indptr[1:])
        nnz = int(indptr[-1])
        idx = np.int32 if max(nnz, self.ndof) <= np.iinfo(np.int32).max else np.int64
        data, indices = np.empty(nnz), np.empty(nnz, dtype=idx)
        for rows in runs:
            p0, p1 = bptr[rows.start], bptr[rows.stop]
            nrows, size = rows.stop - rows.start, (p1 - p0) * b * b
            sub = ((bptr[rows.start : rows.stop + 1] - p0).astype(idx), self.indices[p0:p1].astype(idx))
            ptr, cols = np.empty(nrows * b + 1, dtype=idx), np.empty(size, dtype=idx)
            vals, mask = np.empty(size), np.empty(size, dtype=bool)
            _sparsetools.bsr_tocsr(nrows, n, b, b, *sub, self.values[p0:p1], ptr, cols, vals)
            _sparsetools.bsr_tocsr(nrows, n, b, b, *sub, keep[p0:p1], ptr, cols, mask)
            out = slice(indptr[rows.start * b], indptr[rows.stop * b])
            kept = np.flatnonzero(mask)
            np.take(vals, kept, out=data[out])
            np.take(cols, kept, out=indices[out])
        return sp.csr_matrix((data, indices, indptr.astype(idx)), shape=(self.ndof, self.ndof))

    def toarray(self) -> np.ndarray:
        return self.to_bsr().toarray()

    # -- operations ------------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product on a flat DOF vector of length ``n * b``,
        through the cached scipy BSR handle."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ndof,):
            raise ValueError(f"x must have shape ({self.ndof},), got {x.shape}")
        return self.to_bsr() @ x

    def block_rows(self) -> np.ndarray:
        """Expanded block-row index of every stored block, shape ``(nnzb,)``."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def is_symmetric(self, tol: float = 1e-10) -> bool:
        csr = self.to_csr()
        d = csr - csr.T
        scale = max(abs(csr.data).max() if csr.nnz else 0.0, 1.0)
        return not d.nnz or abs(d.data).max() <= tol * scale

    def node_adjacency(self) -> sp.csr_matrix:
        """Boolean node connectivity graph (no self loops), as CSR."""
        data = np.ones(self.nnzb, dtype=np.int8)
        # copied index arrays: setdiag/eliminate_zeros mutate in place
        g = sp.csr_matrix(
            (data, self.indices.copy(), self.indptr.copy()), shape=(self.n, self.n)
        )
        g.setdiag(0)
        g.eliminate_zeros()
        g = (g + g.T).astype(bool).astype(np.int8)
        g.sort_indices()
        return g
