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
        cls, n: int, rows: np.ndarray, cols: np.ndarray, b: int = 3
    ) -> tuple["BCSRMatrix", np.ndarray]:
        """Zero matrix on the pattern of the block pairs ``(rows, cols)``,
        and the slot of each pair in its ``values``.

        Every diagonal block is in the pattern (whether listed or not) so
        the preconditioners can always address ``A[i, i]``.  The pattern
        comes from the pairs alone: what is summed into the slots later
        (:meth:`add_blocks`) never has to exist all at once.
        """
        rows = check_index_array(np.asarray(rows), n, "block rows")
        cols = check_index_array(np.asarray(cols), n, "block cols")
        # one sort finds the pattern and the slot of each pair
        diag = np.arange(n, dtype=np.int64)
        key = np.concatenate([rows.astype(np.int64) * n + cols, diag * (n + 1)])
        uniq, slot = np.unique(key, return_inverse=True)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(uniq // n, minlength=n), out=indptr[1:])
        mat = cls(n=n, b=b, indptr=indptr, indices=uniq % n, values=np.zeros((uniq.size, b, b)))
        return mat, slot[: rows.size]

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
        shape = (self.ndof, self.ndof)
        if keep is None:
            csr = self.to_bsr().tocsr()
        else:
            kept = np.flatnonzero(
                sp.bsr_matrix((keep, self.indices, self.indptr), shape=shape).tocsr().data
            )
            # array by array, so the full expansion goes as the kept part comes
            csr = self.to_bsr().tocsr()
            csr.data = csr.data.take(kept)
            csr.indices = csr.indices.take(kept)
            csr.indptr = np.searchsorted(kept, csr.indptr).astype(csr.indices.dtype)
        # block columns are sorted and unique within each row (class
        # invariant), so the expanded rows are canonical already
        csr.has_canonical_format = True
        return csr

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
