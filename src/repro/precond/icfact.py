"""Color-wise batched variable-block incomplete Cholesky factorization.

This is the numeric engine behind every IC-family preconditioner in the
reproduction (scalar IC(0), BIC(0)/(1)/(2), SB-BIC(0)).  It mirrors the
GeoFEM design of paper sections 3-4:

- The matrix is compressed over *super-nodes* (selective blocks): each
  contact group is one block, every free node is a block of its own.
  With singleton node blocks this degenerates to ordinary BIC(k); with
  singleton DOF blocks to scalar IC(k).
- Super-nodes are multicolor (MC) ordered; within a color they are sorted
  by block size (Fig. 22) so the batched kernels run without per-block
  dispatch.  All rows of one color are independent, so factorization and
  forward/backward substitution are *vectorized over the color* — numpy
  batches play the role of the Earth Simulator's vector pipelines.
- ``M = (D + L) D^{-1} (D + L)^T`` where ``L`` holds the strictly-lower
  blocks and ``D`` the (re-)factorized diagonal blocks; the diagonal
  blocks of selective blocks are dense ``3NB x 3NB`` matrices inverted
  exactly — the "full LU inside each selective block" of section 3.1.

The fill level decides the numeric variant:

- ``"dmod"`` at fill level 0 (GeoFEM's pseudo IC(0)): off-diagonal
  blocks are taken from A unchanged; only the diagonal blocks are
  modified, ``D_i <- A_ii - sum_k A_ik D_k^{-1} A_ik^T``.
- ``"full"`` above it: genuine block IC(k) — off-diagonal (and level-k
  fill) blocks are updated,  ``V_ij <- V_ij - V_ik D_k^{-1} V_jk^T``.

For fill level >= 1 the execution schedule comes from level scheduling of
the filled dependency DAG instead of the coloring (the paper only ran
BIC(1)/(2) on scalar machines, where no color constraint exists).

Symbolic / numeric split
------------------------

Setup is split into two phases (DESIGN.md section 9).  The *symbolic*
phase (:class:`ICSymbolic`) depends only on the sparsity pattern of A and
the super-node partition: ordering, fill pattern, VBR layout, execution
schedule, the index maps driving the numeric update sweeps, and the
*structure* of the flat substitution plan, whose layout
:mod:`repro.kernels.plans` owns (:func:`~repro.kernels.plans.plan_structure`).
The *numeric* phase scatters A's values, runs the update sweeps and
refills the plan's data in place — :meth:`BlockICFactorization.refactor`
repeats it on new values (a penalty update, a Manteuffel shift
escalation) without redoing any pattern work.  One symbolic object can
be shared by any number of factorizations via the ``symbolic=``
constructor argument; the invalidation rule is simple: a changed
sparsity pattern requires a new symbolic object (``refactor`` raises on
a pattern mismatch).
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import scipy.sparse as sp

from repro.kernels import SubstitutionPlan, apply_substitution, apply_substitution_block
from repro.kernels.plans import new_plan, plan_structure
from repro.obs import record_span
from repro.precond.base import Preconditioner
from repro.resilience.taxonomy import PivotNudgeWarning
from repro.reorder.coloring import Coloring
from repro.reorder.multicolor import multicolor
from repro.sparse.vbr import VBRMatrix, shape_buckets, supernode_maps
from repro.utils.indexing import SETUP_CHUNK, chunks, ranges, sorted_unique
from repro.utils.timing import Laps
from repro.utils.validate import check_square_csr

__all__ = [
    "BlockICFactorization",
    "ICSymbolic",
    "lower_fill_pattern",
]


def _canonical_csr(a) -> sp.csr_matrix:
    """*a* itself when it already is a canonical square ``csr_matrix``,
    else :func:`check_square_csr`'s coercion of it.

    ``check_square_csr`` wraps even a canonical operand in a new
    ``csr_matrix`` (sharing its arrays); the numeric phase promises to
    build no scipy object, and a factor that holds the caller's matrix
    instead of a second handle on its arrays measured 50 MB less
    resident peak on the ``cold_solve`` benchmark (217 vs 267 MB; same
    Python-level allocations, the arrays are just freed in one place).
    """
    if isinstance(a, sp.csr_matrix) and a.has_canonical_format and a.shape[0] == a.shape[1]:
        return a
    return check_square_csr(a)


def _take(arr: np.ndarray, start: np.ndarray, width: int, unit: int) -> np.ndarray:
    """The blocks of *width* values of the flat *arr* that start at
    ``start * unit``, one block per row.

    Every block offset and size is a multiple of *unit*, so *arr* is read
    as contiguous rows of *unit* values and a block is ``width // unit``
    consecutive rows: ``np.take`` copies them (a single row per block in
    the common case), and no per-scalar index is built.
    """
    rows = start if width == unit else start[:, None] + np.arange(width // unit)
    return np.take(arr.reshape(-1, unit), rows, axis=0).reshape(start.size, width)


def _slots(start: np.ndarray, width: int, unit: int) -> np.ndarray:
    """The flat slots of the blocks of *width* values starting at
    ``start * unit``."""
    return ((start * unit)[:, None] + np.arange(width)).reshape(-1)


def _subtract_at(arr: np.ndarray, start: np.ndarray, width: int, unit: int, blocks) -> None:
    """Subtract *blocks* (one per entry of *start*, *width* values each)
    from the blocks of *arr* at ``start * unit``, repeats included.

    ``add.at`` walks the (block, value) pairs value-major: a slot still
    gets its contributions in block order, so the sums are those of the
    block-major walk to the bit, and the slot index is a broadcast along
    the long axis instead of a short one (about 5x cheaper to build).
    """
    n = start.size
    neg = np.negative(blocks.reshape(n, width).T, out=np.empty((width, n)))
    slots = np.arange(width)[:, None] + start * unit
    np.add.at(arr, slots.reshape(-1), neg.reshape(-1))


def lower_fill_pattern(adj: sp.csr_matrix, level: int):
    """Strictly-lower sparsity pattern of IC(level) fill, plus the diagonal.

    Uses the fill-path theorem: entry (i, j), i > j, is in the level-k
    pattern iff the graph has a path from i to j of length <= k + 1 whose
    interior vertices are all numbered below min(i, j) = j.  Levels 0-2
    (the only ones the paper uses) are enumerated vectorized.

    Returns CSR ``(indptr, indices)`` over rows with columns ascending and
    the diagonal entry last in each row.
    """
    if level not in (0, 1, 2):
        raise NotImplementedError(f"fill level {level} not supported (paper uses 0..2)")
    n = adj.shape[0]
    indptr, indices = adj.indptr, adj.indices
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    cols = indices.astype(np.int64)

    # Collect lower edges as int64 keys (r * n + c) for vectorized union.
    lower = rows > cols
    keys = [rows[lower] * n + cols[lower]]

    if level >= 1:
        # Paths i - v - j with v < j < i: for each v, pairs of higher neighbors.
        keys.extend(_pairs_through_vertices(indptr, indices, n))
    if level >= 2:
        keys.extend(_pairs_through_edges(indptr, indices, rows, cols, n))

    # The diagonal key r * n + r is the largest of row r's lower keys, so
    # one ascending sort puts it last in each row — as required.
    keys.append(np.arange(n, dtype=np.int64) * (n + 1))
    allk = sorted_unique(np.concatenate(keys))
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(allk // n, minlength=n), out=out_indptr[1:])
    return out_indptr, allk % n


def _pairs_through_vertices(indptr, indices, n, chunk=2048):
    """Level-1 fill keys: pairs (i, j), i > j, sharing a neighbor v < j."""
    out = []
    for v0 in range(0, n, chunk):
        v1 = min(v0 + chunk, n)
        buf_i, buf_j = [], []
        for v in range(v0, v1):
            h = indices[indptr[v] : indptr[v + 1]]
            h = h[h > v]
            m = h.size
            if m < 2:
                continue
            a, b = np.tril_indices(m, -1)
            buf_i.append(h[a])  # h ascending => h[a] > h[b]
            buf_j.append(h[b])
        if buf_i:
            i = np.concatenate(buf_i).astype(np.int64)
            j = np.concatenate(buf_j).astype(np.int64)
            out.append(i * n + j)
    return out


def _pairs_through_edges(indptr, indices, rows, cols, n, chunk=4096):
    """Level-2 fill keys: pairs (i, j), i > j, joined by a path i-u-w-j
    with both interior vertices u, w below j."""
    out = []
    erows = rows
    ecols = cols
    for e0 in range(0, erows.size, chunk):
        e1 = min(e0 + chunk, erows.size)
        buf = []
        for u, w in zip(erows[e0:e1], ecols[e0:e1]):
            lo = max(u, w)
            hi_u = indices[indptr[u] : indptr[u + 1]]
            hi_u = hi_u[hi_u > lo]
            hi_w = indices[indptr[w] : indptr[w + 1]]
            hi_w = hi_w[hi_w > lo]
            if hi_u.size == 0 or hi_w.size == 0:
                continue
            i = np.repeat(hi_u, hi_w.size).astype(np.int64)
            j = np.tile(hi_w, hi_u.size).astype(np.int64)
            keep = i > j
            if keep.any():
                buf.append(i[keep] * n + j[keep])
        if buf:
            out.append(np.unique(np.concatenate(buf)))
    return out


class ICSymbolic:
    """Pattern-only ("symbolic") phase of the block incomplete Cholesky.

    Everything computed here depends only on the sparsity pattern of A
    and the super-node partition:

    - the multicolor ordering and the DOF permutation,
    - the level-k lower fill pattern and the VBR block layout,
    - the execution schedule (colors, or level-scheduled waves),
    - the values-only scatter map from A's CSR entries into L's blocks,
    - the shape buckets driving the numeric factorization sweeps
      (diagonal inversion, dmod diagonal updates, full-variant triples),
      one start offset per block and operand,
    - the structure of the flat substitution plan and the gather maps
      the numeric phase refills its data through.

    One symbolic object can drive any number of numeric factorizations —
    across ALM penalty updates, Manteuffel shift escalations and
    fallback-ladder rungs — via ``BlockICFactorization(..., symbolic=)``
    or :meth:`BlockICFactorization.refactor`.  The invalidation rule: a
    changed sparsity pattern requires a new symbolic object
    (:meth:`pattern_matches` is the guard).
    """

    def __init__(
        self,
        a,
        supernodes: list[np.ndarray],
        *,
        fill_level: int = 0,
        ncolors: int = 0,
    ) -> None:
        laps = Laps()
        a = _canonical_csr(a)
        self.variant = "dmod" if fill_level == 0 else "full"
        self.fill_level = fill_level
        self.ndof = a.shape[0]

        # ---- ordering: color the super-node graph, sort by size in-color
        nsuper = len(supernodes)
        snode_of0, local = supernode_maps(supernodes, self.ndof)
        runs = self._block_runs(a, snode_of0)
        adj0 = self._supernode_adjacency(runs, snode_of0, nsuper)
        col = multicolor(adj0, ncolors)
        self.coloring: Coloring = col
        sizes0 = np.bincount(snode_of0, minlength=nsuper)
        order = np.lexsort((np.arange(nsuper), -sizes0, col.colors))
        self.order = order.astype(np.int64)
        iorder = np.empty(nsuper, dtype=np.int64)
        iorder[self.order] = np.arange(nsuper)
        self.sizes = sizes0[order]
        # a DOF keeps its place inside its super-node; only the
        # super-nodes move, so the old maps renumber into the new ones
        snode_of = iorder[snode_of0]
        offsets = np.concatenate(([0], np.cumsum(self.sizes)))
        self.iperm_dof = offsets[snode_of] + local
        self.perm_dof = np.empty(self.ndof, dtype=np.int64)
        self.perm_dof[self.iperm_dof] = np.arange(self.ndof)
        colors_new = col.colors[order]
        self.ncolors = col.ncolors
        laps.lap("ic_symbolic.ordering")

        # ---- filled lower pattern in the new numbering
        edges = adj0.tocoo()
        adj = sp.csr_matrix(
            (edges.data, (iorder[edges.row], iorder[edges.col])), shape=adj0.shape
        )
        lp_indptr, lp_indices = lower_fill_pattern(adj, fill_level)
        self.pattern = VBRMatrix.from_pattern(self.sizes, lp_indptr, lp_indices)
        # number of *fill* blocks beyond the level-0 pattern (one block per
        # undirected edge plus the diagonal) — the memory census
        self.nnz_fill = int(self.pattern.nnzb - (adj.nnz // 2 + nsuper))
        del adj0, edges, adj, lp_indptr, lp_indices

        # ---- execution schedule
        if fill_level == 0:
            groups = [
                np.flatnonzero(colors_new == c).astype(np.int64)
                for c in range(self.ncolors)
            ]
            groups = [g for g in groups if g.size]
        else:
            groups = self._level_schedule()
        self.schedule = groups
        self.group_of = np.empty(self.pattern.N, dtype=np.int64)
        for g, members in enumerate(self.schedule):
            self.group_of[members] = g
        # super-nodes in the order the substitution sweeps visit them
        sweep = np.concatenate(groups) if groups else self.order[:0]
        laps.lap("ic_symbolic.pattern")

        # ---- values-only scatter map A -> L (the refactor fast path)
        self._a_indptr = a.indptr
        self._a_indices = a.indices
        self._build_scatter_map(a, runs, iorder, snode_of, local)
        del runs

        # ---- diagonal block storage layout
        self.diag_pos = self.pattern.indptr[1:] - 1
        if not np.array_equal(
            self.pattern.indices[self.diag_pos], np.arange(self.pattern.N)
        ):
            raise AssertionError("diagonal block is not last in some lower row")
        # inverse diagonal blocks, row-major, laid out in sweep order
        ends = np.cumsum(self.sizes[sweep] ** 2)
        self.dinv_size = int(ends[-1]) if ends.size else 0
        self.dinv_off = np.full(self.pattern.N + 1, self.dinv_size, dtype=np.int64)
        self.dinv_off[sweep] = ends - self.sizes[sweep] ** 2

        # ---- numeric-sweep buckets (block offsets precomputed so the
        # numeric phase is pure gather + batched matmul + scatter); every
        # block size, hence every offset into L.data or Dinv, is a
        # multiple of the squared gcd of the super-node sizes
        self.unit = int(np.gcd.reduce(self.sizes)) ** 2 if self.sizes.size else 1
        self._build_diag_buckets()
        if self.variant == "dmod":
            self.dmod_updates = self._build_dmod_updates()
            self.full_updates = None
        else:
            self.full_updates = self._build_full_updates()
            self.dmod_updates = None
        laps.lap("ic_symbolic.maps")

        # ---- structure of the substitution plan, and its refill maps
        (
            self.plan_perm, self.group_ptr, self.dinv_indptr, self.dinv_indices,
            self.fwd_struct, self.fwd_gather, self.bwd_struct, self.bwd_gather,
        ) = plan_structure(
            self.pattern, self.schedule, self.group_of, self.perm_dof, self._structural_mask()
        )
        laps.lap("ic_symbolic.apply_structs")

        self.build_seconds = laps.total
        record_span(
            "ic_symbolic",
            self.build_seconds,
            laps.phases,
            ndof=self.ndof,
            fill_level=self.fill_level,
            variant=self.variant,
            ncolors=self.ncolors,
            symbolic_bytes=self.memory_bytes(),
        )

    def memory_bytes(self) -> int:
        """Bytes of every array this object keeps alive, each counted
        once — the pattern, the schedule, the numeric-sweep maps and the
        plan structure; the index arrays of A it only borrows are not."""
        seen = {id(self._a_indptr), id(self._a_indices)}

        def walk(obj) -> int:
            if isinstance(obj, np.ndarray):
                if id(obj) in seen:
                    return 0
                seen.add(id(obj))
                return obj.nbytes
            if isinstance(obj, (list, tuple)):
                return sum(map(walk, obj))
            return sum(map(walk, vars(obj).values())) if hasattr(obj, "__dict__") else 0

        return walk(self)

    # ------------------------------------------------------------------
    # structure helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _block_runs(a: sp.csr_matrix, snode_of: np.ndarray):
        """Runs of consecutive stored scalars of one row of *a* inside one
        super-node block, listed by row like a CSR matrix: ``(ptr, bj,
        start)``, the runs of scalar row ``r`` being ``ptr[r]:ptr[r + 1]``,
        ``bj`` the super-node of their columns, ``start`` their first
        entry in *a*.

        The DOF columns of a node map to one super-node, so a scalar
        row's entries come in runs of equal ``(bi, bj)``: whatever is
        looked up per block — the adjacency, the scatter map — is looked
        up on the run heads, a third of the scalars on 3-DOF nodes.  The
        heads are found a row range at a time, ``bj`` and ``start`` are
        held in *a*'s index type, and a run's row (hence ``bi``) is read
        off ``ptr`` where it is needed, so nothing of *a*'s size is built.
        """
        n, idx = a.shape[0], a.indices.dtype
        ptr = np.zeros(n + 1, dtype=np.int64)
        bjs, starts = [np.empty(0, dtype=idx)], [np.empty(0, dtype=idx)]
        for rows in chunks(n, max(a.nnz // 16, SETUP_CHUNK), a.indptr):
            first = a.indptr[rows.start : rows.stop + 1]
            e0 = first[0]
            bj = snode_of[a.indices[e0 : first[-1]]]
            head = np.ones(bj.size, dtype=bool)
            np.not_equal(bj[1:], bj[:-1], out=head[1:])
            head[first[:-1][first[:-1] < first[1:]] - e0] = True
            start = np.flatnonzero(head)
            ptr[rows.start + 1 : rows.stop + 1] = ptr[rows.start] + np.searchsorted(start, first[1:] - e0)
            bjs.append(bj[start].astype(idx))
            starts.append((start + e0).astype(idx))
        return ptr, np.concatenate(bjs), np.concatenate(starts)

    @staticmethod
    def _run_ranges(ptr: np.ndarray):
        """``(rows, runs)`` slices: the block runs of :meth:`_block_runs`
        with run offsets *ptr*, a range of scalar rows at a time."""
        for rows in chunks(ptr.size - 1, max(int(ptr[-1]) // 16, SETUP_CHUNK), ptr):
            yield rows, slice(ptr[rows.start], ptr[rows.stop])

    @staticmethod
    def _supernode_adjacency(runs, snode_of: np.ndarray, n: int) -> sp.csr_matrix:
        """Symmetric 0/1 graph (no self loops) of the super-node pairs
        ``(bi, bj)`` of the block runs *runs* of the matrix (``bi`` the
        super-node of a run's row, by *snode_of*), collected a range of
        rows at a time."""
        ptr, bjs, _start = runs
        keys = [np.empty(0, dtype=np.int64)]
        for rows, q in ICSymbolic._run_ranges(ptr):
            bi = np.repeat(snode_of[rows], np.diff(ptr[rows.start : rows.stop + 1]))
            bj = bjs[q]
            off = bi != bj
            bi, bj = bi[off], bj[off]
            keys.append(sorted_unique(np.maximum(bi, bj) * n + np.minimum(bi, bj)))
        pairs = sorted_unique(np.concatenate(keys))
        hi, lo = pairs // n, pairs % n
        return sp.csr_matrix(
            (
                np.ones(2 * pairs.size, dtype=np.int8),
                (np.concatenate([hi, lo]), np.concatenate([lo, hi])),
            ),
            shape=(n, n),
        )

    def _level_schedule(self) -> list[np.ndarray]:
        """Wave decomposition of the filled lower-triangular DAG.

        Vectorized topological (Kahn) sweep over the CSR arrays: wave w
        collects every row whose strictly-lower neighbours all sit in
        earlier waves, which reproduces the per-row recurrence
        ``wave[i] = max(wave[nbrs(i)]) + 1`` one frontier at a time with
        array operations instead of an O(N) Python loop.
        """
        n = self.pattern.N
        if n == 0:
            return []
        indptr, indices = self.pattern.indptr, self.pattern.indices
        # remaining strictly-lower dependencies per row (diag is last)
        deps = np.diff(indptr) - 1
        # CSC view of the strictly-lower pattern: rows depending on a column
        offdiag = self._offdiag_positions()
        order = np.argsort(indices[offdiag], kind="stable")
        by_col = offdiag[order]
        col_sorted = indices[by_col]
        dep_rows = self.pattern.block_rows()[by_col]
        col_ptr = np.searchsorted(col_sorted, np.arange(n + 1))

        waves: list[np.ndarray] = []
        frontier = np.flatnonzero(deps == 0).astype(np.int64)
        assigned = 0
        while frontier.size:
            waves.append(frontier)
            assigned += frontier.size
            starts = col_ptr[frontier]
            lens = col_ptr[frontier + 1] - starts
            hit = dep_rows[ranges(starts, lens)]
            deps[frontier] = -1  # retire, so flatnonzero never re-selects
            if hit.size:
                deps -= np.bincount(hit, minlength=n)
            frontier = np.flatnonzero(deps == 0).astype(np.int64)
        if assigned != n:
            raise AssertionError("level schedule did not cover all rows")
        return waves

    def _offdiag_positions(self) -> np.ndarray:
        p = np.arange(self.pattern.nnzb, dtype=np.int64)
        return p[self.pattern.indices != self.pattern.block_rows()]

    def _build_scatter_map(self, a: sp.csr_matrix, runs, iorder, snode_of, local) -> None:
        """Map each lower-triangular entry of A to its slot in L's data.

        *runs* are the block runs of *a* (:meth:`_block_runs`), *iorder*
        takes their super-nodes, *snode_of* their rows' DOFs to the new
        numbering: the block of a run is looked up once and repeated over
        its scalars, a range of rows at a time.  A is canonical CSR, so
        every kept entry lands in a distinct slot and the numeric scatter
        is a single fancy-index assignment.
        """
        ptr, bjs, starts = runs
        self.scatter_src = np.zeros(a.nnz, dtype=bool)
        dsts = [np.empty(0, dtype=np.intp)]
        for rows, q in self._run_ranges(ptr):
            row = np.repeat(np.arange(rows.start, rows.stop), np.diff(ptr[rows.start : rows.stop + 1]))
            bi, bj = snode_of[row], iorder[bjs[q]]
            start = starts[q].astype(np.int64)
            length = np.diff(start, append=starts[q.stop] if q.stop < starts.size else a.nnz)
            lower = np.flatnonzero(bi >= bj)
            row, bj, start, length = row[lower], bj[lower], start[lower], length[lower]
            pos = self.pattern.find_blocks(bi[lower], bj)
            if (pos < 0).any():
                raise ValueError("CSR entry outside the VBR pattern")
            src = ranges(start, length)
            dst = np.repeat(self.pattern.boff[pos] + local[row] * self.sizes[bj], length)
            dst += local[a.indices[src]]
            # the runs come in CSR order, so *src* ascends and a mask over
            # A's entries selects the same values in the same order at a
            # quarter of the bytes (one per entry of A, not eight per
            # lower entry)
            self.scatter_src[src] = True
            dsts.append(dst)
        # *dst* stays intp: numpy casts a narrower index array to intp on
        # every use, in a temporary as large as the map (+1.2 ms and two
        # transients of nnz(L) per refactor at 20k DOF)
        self.scatter_dst = np.concatenate(dsts)

    def pattern_matches(self, a: sp.csr_matrix) -> bool:
        """True iff *a* has exactly the pattern this object was built from."""
        if a.shape[0] != self.ndof:
            return False
        if a.indptr is self._a_indptr and a.indices is self._a_indices:
            return True
        return (
            a.indices.size == self._a_indices.size
            and np.array_equal(a.indptr, self._a_indptr)
            and np.array_equal(a.indices, self._a_indices)
        )

    def new_vbr(self) -> VBRMatrix:
        """Fresh zero-valued L sharing this pattern's structure arrays."""
        return self.pattern.empty_like()

    # ------------------------------------------------------------------
    # numeric-sweep buckets
    # ------------------------------------------------------------------

    # Every bucket below keeps, per block and operand, the offset of the
    # block's first value (in ``L.data`` or in the inverse diagonal) in
    # units of ``self.unit`` values: a block is contiguous, so the numeric
    # phase gathers it by that one number (:func:`_take`) instead of
    # through a per-scalar map.

    def _build_diag_buckets(self) -> None:
        """Per group: (s, diagonal-block offsets in L, in Dinv) for the
        diagonal inversion."""
        L, u = self.pattern, self.unit
        self.diag_buckets: list[list[tuple]] = []
        for members in self.schedule:
            bucket = []
            for s, _sc, rows in shape_buckets(self.sizes, self.sizes, members):
                bucket.append((int(s), L.boff[self.diag_pos[rows]] // u, self.dinv_off[rows] // u))
            self.diag_buckets.append(bucket)

    def _build_dmod_updates(self) -> list[list[tuple]]:
        """Per group: block offsets of the dmod diagonal recurrence
        ``D_i -= A_ik D_k^{-1} A_ik^T`` (k in earlier groups)."""
        L, u = self.pattern, self.unit
        offdiag = self._offdiag_positions()
        brow = L.block_rows()
        row_group = self.group_of[brow[offdiag]]
        shape_r = self.sizes[brow]
        shape_c = self.sizes[L.indices]
        out: list[list[tuple]] = []
        for g in range(len(self.schedule)):
            pos_g = offdiag[row_group == g]
            bucket = []
            for si, sk, pos in shape_buckets(shape_r, shape_c, pos_g):
                ik = L.boff[pos] // u
                dk = self.dinv_off[L.indices[pos]] // u
                ii = L.boff[self.diag_pos[brow[pos]]] // u
                bucket.append((int(si), int(sk), ik, dk, ii))
            out.append(bucket)
        return out

    def _build_triples(self):
        """All update triples (k; positions of (i,k), (j,k), (i,j)).

        For each column k and each pair i >= j of rows holding a block in
        column k, the block (i, j) — if present in the pattern — receives
        the update ``V_ij -= V_ik D_k^{-1} V_jk^T``.

        Columns are bucketed by their strictly-lower entry count m, so
        the pair enumeration runs batched over all columns of a bucket
        (one ``tril_indices`` per m instead of one per column).
        """
        L = self.pattern
        brow = L.block_rows()
        offdiag = self._offdiag_positions()
        # CSC-like grouping of strictly-lower positions by column.
        order = np.argsort(L.indices[offdiag], kind="stable")
        by_col = offdiag[order]
        col_sorted = L.indices[by_col]
        col_ptr = np.searchsorted(col_sorted, np.arange(L.N + 1))
        counts = np.diff(col_ptr)

        tks, piks, pjks, pijs = [], [], [], []
        for m in np.unique(counts):
            if m == 0:
                continue
            m = int(m)
            ks = np.flatnonzero(counts == m).astype(np.int64)
            npairs = m * (m + 1) // 2
            a_idx, b_idx = np.tril_indices(m)
            # keep each candidate batch around one million triples
            step = max(1, 1_000_000 // npairs)
            for c0 in range(0, ks.size, step):
                kc = ks[c0 : c0 + step]
                # positions of blocks (i, k), i > k; rows ascending per column
                pos = by_col[col_ptr[kc][:, None] + np.arange(m)]
                pik = pos[:, a_idx].reshape(-1)
                pjk = pos[:, b_idx].reshape(-1)
                kk = np.repeat(kc, npairs)
                pij = L.find_blocks(brow[pik], brow[pjk])
                keep = pij >= 0
                if keep.any():
                    tks.append(kk[keep])
                    piks.append(pik[keep])
                    pjks.append(pjk[keep])
                    pijs.append(pij[keep])
        if not tks:
            z = np.empty(0, dtype=np.int64)
            return z, z.copy(), z.copy(), z.copy()
        return (
            np.concatenate(tks),
            np.concatenate(piks),
            np.concatenate(pjks),
            np.concatenate(pijs),
        )

    def _build_full_updates(self) -> list[list[tuple]]:
        """Per group: shape-bucketed block offsets of the full block IC
        update sweep, from the vectorized triples."""
        tk, pik, pjk, pij = self._build_triples()
        L, u = self.pattern, self.unit
        brow = L.block_rows()
        shape = self.sizes
        out: list[list[tuple]] = [[] for _ in self.schedule]
        if tk.size == 0:
            return out
        kg = self.group_of[tk]
        # bucket by the (group, si, sk, sj) quadruple in one sort
        smax = int(shape.max()) + 1
        key = ((kg * smax + shape[brow[pik]]) * smax + shape[tk]) * smax + shape[
            brow[pjk]
        ]
        order = np.argsort(key, kind="stable")
        bounds = np.concatenate(
            [[0], np.flatnonzero(np.diff(key[order])) + 1, [key.size]]
        )
        for a0, b0 in zip(bounds[:-1], bounds[1:]):
            idx = order[a0:b0]
            g = int(kg[idx[0]])
            si = int(shape[brow[pik[idx[0]]]])
            sk = int(shape[tk[idx[0]]])
            sj = int(shape[brow[pjk[idx[0]]]])
            out[g].append(
                (si, sk, sj, L.boff[pik[idx]] // u, L.boff[pjk[idx]] // u,
                 self.dinv_off[tk[idx]] // u, L.boff[pij[idx]] // u)
            )
        return out

    # ------------------------------------------------------------------
    # which entries the substitution plan holds
    # ------------------------------------------------------------------

    def _structural_mask(self) -> np.ndarray:
        """Which stored scalars of L can ever be nonzero.

        L's dense blocks pad what A stores: an entry is live if A
        scatters a value into it or — full variant — an update
        ``V_ij -= V_ik D_k^{-1} V_jk^T`` can reach it (row ``r`` of
        ``V_ik`` and row ``c`` of ``V_jk`` both live, ``D_k^{-1}`` taken
        as dense).  Groups are walked in schedule order, so a group's
        column blocks are final when it updates later ones.
        """
        mask = np.zeros(int(self.pattern.boff[-1]), dtype=bool)
        mask[self.scatter_dst] = True
        u = self.unit
        for buckets in self.full_updates or ():
            for si, sk, sj, ik, jk, _dk, ij in buckets:
                live_i = _take(mask, ik, si * sk, u).reshape(-1, si, sk).any(axis=2)
                live_j = _take(mask, jk, sj * sk, u).reshape(-1, sj, sk).any(axis=2)
                hit = live_i[:, :, None] & live_j[:, None, :]
                mask[_slots(ij, si * sj, u)[hit.reshape(-1)]] = True
        return mask


# One chunk of one shape bucket of the numeric update sweep per call: a
# blockwise gather, a batched matmul and a scatter.  A call's transients
# are freed when it returns, before the next chunk gathers, and a chunk
# is a sixteenth of the factor's values per operand (see ``_factor_*``),
# so a refactor allocates nothing of the factor's size.  A bucket's
# targets (diagonal blocks; blocks whose column is swept later) are never
# among its sources, so chunking changes no value, and ``add.at`` gets
# every target's contributions in the bucket's order.


def _dmod_update(data, dinv, u, si, sk, ik, dk, ii) -> None:
    """Batched dmod diagonal recurrence ``D_i -= A_ik D_k^{-1} A_ik^T``."""
    aik = _take(data, ik, si * sk, u).reshape(-1, si, sk)
    dkk = _take(dinv, dk, sk * sk, u).reshape(-1, sk, sk)
    _subtract_at(data, ii, si * si, u, np.matmul(np.matmul(aik, dkk), aik.transpose(0, 2, 1)))


def _full_update(data, dinv, u, si, sk, sj, ik, jk, dk, ij) -> None:
    """Batched full block-IC update ``V_ij -= V_ik D_k^{-1} V_jk^T``."""
    vik = _take(data, ik, si * sk, u).reshape(-1, si, sk)
    vjk = _take(data, jk, sj * sk, u).reshape(-1, sj, sk)
    dkk = _take(dinv, dk, sk * sk, u).reshape(-1, sk, sk)
    _subtract_at(data, ij, si * sj, u, np.matmul(np.matmul(vik, dkk), vjk.transpose(0, 2, 1)))


class BlockICFactorization(Preconditioner):
    """Variable-block incomplete Cholesky preconditioner.

    Parameters
    ----------
    a:
        Symmetric positive definite matrix (scalar CSR or convertible).
    supernodes:
        Ordered partition of the DOFs into super-nodes (selective
        blocks).  Singleton node blocks give BIC(k); contact groups give
        SB-BIC(0); singleton DOFs give scalar IC(k).  May be None when
        ``symbolic`` is given.
    fill_level:
        Level-of-fill k of the block factorization (0, 1 or 2).
    ncolors:
        Target multicolor count (0 = minimal greedy palette).
    shift:
        Diagonal shift added to each diagonal block before inversion
        (robustness safeguard; 0 reproduces the paper).
    symbolic:
        A cached :class:`ICSymbolic` from an earlier factorization of a
        matrix with the *same sparsity pattern*: the entire pattern phase
        is skipped and only the numeric phase runs.  ``fill_level`` must
        agree with the symbolic object; ``ncolors`` is taken from it.
    """

    def __init__(
        self,
        a,
        supernodes: list[np.ndarray] | None = None,
        *,
        fill_level: int = 0,
        ncolors: int = 0,
        shift: float = 0.0,
        name: str | None = None,
        symbolic: ICSymbolic | None = None,
    ) -> None:
        t0 = time.perf_counter()
        a = _canonical_csr(a)
        if symbolic is None:
            if supernodes is None:
                raise ValueError(
                    "supernodes are required when no symbolic object is given"
                )
            symbolic = ICSymbolic(
                a,
                supernodes,
                fill_level=fill_level,
                ncolors=ncolors,
            )
            self.owns_symbolic = True
            check = False  # the symbolic phase just ran on this very pattern
        else:
            if symbolic.fill_level != fill_level:
                raise ValueError(
                    f"symbolic object was built for fill_level="
                    f"{symbolic.fill_level}; requested fill_level={fill_level}"
                )
            self.owns_symbolic = False
            check = True
        self.symbolic = symbolic
        self.symbolic_seconds = symbolic.build_seconds if self.owns_symbolic else 0.0

        # pattern-phase views, shared with (and owned by) the symbolic object
        self.variant = symbolic.variant
        self.fill_level = symbolic.fill_level
        self.ndof = symbolic.ndof
        self.name = name or f"BIC({symbolic.fill_level})"
        self.coloring = symbolic.coloring
        self.ncolors = symbolic.ncolors
        self.sizes = symbolic.sizes
        self.perm_dof = symbolic.perm_dof
        self.iperm_dof = symbolic.iperm_dof
        self.schedule = symbolic.schedule
        self.nnz_fill = symbolic.nnz_fill

        # numeric state (per-instance): allocated here, refilled in place
        # by every refactor
        self.L = symbolic.new_vbr()
        self._dinv = np.zeros(symbolic.dinv_size)
        self._plan = new_plan(symbolic, self._dinv)
        self._shift = float(shift)
        self.numeric_setup_count = 0
        self.refactor(a, check_pattern=check)
        self.setup_seconds = time.perf_counter() - t0

    # ------------------------------------------------------------------
    # numeric factorization
    # ------------------------------------------------------------------

    def refactor(
        self,
        a=None,
        *,
        shift: float | None = None,
        check_pattern: bool = True,
    ) -> "BlockICFactorization":
        """Numeric-only re-factorization on the cached symbolic pattern.

        Re-scatters the values of *a* (default: the matrix of the
        previous setup — useful with ``shift=``), reruns the update
        sweeps and re-gathers the compiled operator data arrays, without
        redoing any pattern work (ordering, fill enumeration, schedule,
        operator structures).  *a* must have exactly the sparsity pattern
        the symbolic object was built from; a changed pattern raises
        ``ValueError`` (build a new factorization instead — the
        invalidation rule of DESIGN.md section 9).

        Returns ``self`` so call sites can chain or rebind.
        """
        laps = Laps()
        if a is None:
            a = self._a
        else:
            a = _canonical_csr(a)
        if check_pattern and not self.symbolic.pattern_matches(a):
            raise ValueError(
                "matrix sparsity pattern differs from the cached symbolic "
                "pattern; build a new BlockICFactorization instead"
            )
        self._a = a
        if shift is not None:
            self._shift = float(shift)
        sym = self.symbolic

        # values-only scatter of A's lower triangle into L's blocks
        self.L.data[:] = 0.0
        self.L.data[sym.scatter_dst] = a.data[sym.scatter_src]
        laps.lap("ic_numeric.scatter")

        self.breakdown_count = 0
        self.nudged_block_sizes: list[int] = []
        if self.variant == "dmod":
            self._factor_dmod()
        else:
            self._factor_full()
        self._warn_on_pivot_nudges()
        laps.lap("ic_numeric.factor")
        self._plan.refill(self.L.data, sym.fwd_gather, sym.bwd_gather)
        laps.lap("ic_numeric.gather")
        self._m_factors = None  # apply_m's copy of the old factor
        self.numeric_setup_count += 1
        self.numeric_seconds = laps.total
        record_span(
            "ic_numeric",
            self.numeric_seconds,
            laps.phases,
            precond=self.name,
            shift=self._shift,
            pivot_nudges=self.breakdown_count,
        )
        return self

    def _invert_group_diag(self, g: int) -> None:
        """Invert the (current) diagonal blocks of schedule group *g*."""
        # one call per bucket, unchunked: a nudge is sized by the largest
        # entry of the bucket's singular blocks
        u = self.symbolic.unit
        for s, src, dst in self.symbolic.diag_buckets[g]:
            blocks = _take(self.L.data, src, s * s, u).reshape(-1, s, s)
            if self._shift:
                blocks = blocks + self._shift * np.eye(s)
            # Guard against exactly singular pivots (breakdown): nudge them,
            # and record every nudge — a regularized pivot means the factor
            # no longer represents A, which callers (the fallback chain in
            # particular) must be able to see.
            det = np.linalg.det(blocks)
            bad = ~np.isfinite(det) | (np.abs(det) < 1e-300)
            if bad.any():
                self.breakdown_count += int(bad.sum())
                self.nudged_block_sizes.extend([int(s)] * int(bad.sum()))
                blocks[bad] += np.eye(s) * (1e-8 + np.abs(blocks[bad]).max())
            if self._shift or bad.any():
                # the pivots inverted are the factor's D, in L as in Dinv
                # (nothing reads a group's diagonal blocks once inverted)
                self.L.data[_slots(src, s * s, u)] = blocks.reshape(-1)
            inv = np.linalg.inv(blocks)
            self._dinv[_slots(dst, s * s, u)] = inv.reshape(-1)

    def _factor_dmod(self) -> None:
        """GeoFEM pseudo-IC(0): refactorize diagonals only."""
        data, dinv, u = self.L.data, self._dinv, self.symbolic.unit
        budget = data.size // 16
        for g in range(len(self.schedule)):
            for si, sk, ik, dk, ii in self.symbolic.dmod_updates[g]:
                for c in chunks(ik.size, budget, max(si, sk) ** 2):
                    _dmod_update(data, dinv, u, si, sk, ik[c], dk[c], ii[c])
            self._invert_group_diag(g)

    def _factor_full(self) -> None:
        """True block IC(k): update off-diagonal and fill blocks too."""
        data, dinv, u = self.L.data, self._dinv, self.symbolic.unit
        budget = data.size // 16
        for g in range(len(self.schedule)):
            self._invert_group_diag(g)
            for si, sk, sj, ik, jk, dk, ij in self.symbolic.full_updates[g]:
                for c in chunks(ik.size, budget, max(si, sk, sj) ** 2):
                    _full_update(data, dinv, u, si, sk, sj, ik[c], jk[c], dk[c], ij[c])

    def factorization_stats(self) -> dict:
        """Setup-quality census: pivot nudges, fill, schedule shape, and
        the symbolic/numeric setup counts of this instance."""
        return {
            "name": self.name,
            "pivot_nudges": self.breakdown_count,
            "nudged_block_sizes": list(self.nudged_block_sizes),
            "nudged_selective_blocks": sum(
                1 for s in self.nudged_block_sizes if s > 3
            ),
            "nnz_fill_blocks": self.nnz_fill,
            "ncolors": self.ncolors,
            "nschedule_groups": len(self.schedule),
            "symbolic_setups": 1 if self.owns_symbolic else 0,
            "numeric_setups": self.numeric_setup_count,
            "symbolic_seconds": self.symbolic_seconds,
            "numeric_seconds": self.numeric_seconds,
            "symbolic_bytes": self.symbolic.memory_bytes(),
            "plan_bytes": self.plan_bytes(),
        }

    def _warn_on_pivot_nudges(self) -> None:
        """SETUP_PIVOT_FAILURE-grade warning when any pivot was nudged.

        A nudged *selective* block (a multi-node contact group solved
        "exactly" per section 3.1) is called out specifically: its full
        LU is no longer exact, which silently forfeits the SB-BIC(0)
        robustness guarantee the block exists for.
        """
        if not self.breakdown_count:
            return
        sizes = self.nudged_block_sizes
        selective = [s for s in sizes if s > 3]
        msg = (
            f"{self.name}: {self.breakdown_count} singular pivot(s) nudged "
            f"during factorization (block sizes {sorted(set(sizes))})"
        )
        if selective:
            msg += (
                f"; {len(selective)} selective block(s) affected — the "
                "in-block LU is no longer exact and the preconditioner may "
                "be unreliable (SETUP_PIVOT_FAILURE)"
            )
        warnings.warn(msg, PivotNudgeWarning, stacklevel=3)

    # ------------------------------------------------------------------
    # application  z = M^{-1} r
    # ------------------------------------------------------------------

    @property
    def plan(self) -> SubstitutionPlan:
        """The substitution plan :meth:`apply` sweeps (a solve's team
        shares its sweeps: :mod:`repro.kernels.team`)."""
        return self._plan

    def apply(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``z = M^{-1} r`` by one sweep of the substitution plan.

        Two direct compiled ``csr_matvec`` calls per group
        (:func:`repro.kernels.apply_substitution`).  Passing ``out``
        reuses the caller's buffer for the result (it may alias *r*);
        the plan's two sweep vectors are preallocated, so an apply with
        ``out`` allocates nothing.
        """
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (self.ndof,):
            raise ValueError(f"r must have shape ({self.ndof},), got {r.shape}")
        perm = self.symbolic.plan_perm
        y = apply_substitution(self._plan, r, perm)
        if out is None:
            out = np.empty(self.ndof)
        out[perm] = y
        return out

    def apply_block(
        self, r: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``Z = M^{-1} R`` for an ``(ndof, s)`` block of residuals.

        The same plan swept with ``csr_matvecs`` over dense ``(rows, s)``
        panels (:func:`repro.kernels.apply_substitution_block`) serves
        all *s* columns in one pass over the factor — the operator is
        read once per group instead of once per column, which is what
        the multi-RHS block-CG solver of :mod:`repro.solvers.block_cg`
        leans on."""
        r = np.asarray(r, dtype=np.float64)
        if r.ndim == 1:
            return self.apply(r, out=out)
        if r.ndim != 2 or r.shape[0] != self.ndof:
            raise ValueError(
                f"r must have shape ({self.ndof}, s), got {r.shape}"
            )
        if out is None:
            out = np.empty_like(r)
        perm = self.symbolic.plan_perm
        y = apply_substitution_block(self._plan, r, perm)
        out[perm, :] = y
        return out

    def apply_m(self, v: np.ndarray) -> np.ndarray:
        """Action of the preconditioning matrix itself:
        ``M v = P^T (D + L) D^{-1} (D + L)^T P v``, ``D + L`` the factor
        (:meth:`factor_csr`, whose diagonal blocks are the pivots that
        ``Dinv`` inverts) and ``P`` the ordering's permutation, so that
        ``apply(apply_m(v)) == v`` up to round-off.

        Needed by the eigenvalue analysis of Appendix A (generalized
        problem ``A x = lambda M x``).  Input/output in original DOF
        numbering, like :meth:`apply`; the two factors, renumbered, are
        built on the first call and kept until the next :meth:`refactor`.
        """
        if self._m_factors is None:
            n, old, perm, plan = self.ndof, self.perm_dof, self.symbolic.plan_perm, self._plan
            low = self.factor_csr().tocoo()
            rows = np.repeat(perm, np.diff(plan.dinv_indptr))
            self._m_factors = (
                sp.csr_matrix((low.data, (old[low.row], old[low.col])), shape=(n, n)),
                sp.csr_matrix((self._dinv, (rows, perm[plan.dinv_indices])), shape=(n, n)),
            )
        low, dinv = self._m_factors
        return low @ (dinv @ (low.T @ np.asarray(v, dtype=np.float64)))

    # ------------------------------------------------------------------
    # introspection for the benches / performance model
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """The factor, counted as Tables 2 and 4 count it: ``L``'s blocks
        with their block-CSR layout (:meth:`VBRMatrix.memory_bytes`) and
        ``Dinv`` with its block offsets.  Not counted: the substitution
        plan's own arrays (:meth:`plan_bytes`) and the symbolic object
        (``symbolic.memory_bytes()``), which a set-up holds as well."""
        return self.L.memory_bytes() + self._dinv.nbytes + self.symbolic.dinv_off.nbytes

    def plan_bytes(self) -> int:
        """Bytes of the substitution plan's arrays that belong to this
        factorization: its two sweep data arrays and its two sweep
        vectors.  The plan's structure is the symbolic object's and its
        ``Dinv`` data is the factor's, each counted there."""
        plan = self._plan
        return plan.fwd.data.nbytes + plan.bwd.data.nbytes + plan.t.nbytes + plan.y.nbytes

    def group_sizes(self) -> np.ndarray:
        """Rows per schedule group (the vector-loop lengths, pre-DJDS)."""
        return np.array([g.size for g in self.schedule], dtype=np.int64)

    def lower_offdiag_count(self) -> int:
        return int(self.L.nnzb - self.L.N)

    def factor_csr(self) -> sp.csr_matrix:
        """Scalar CSR of the lower factor ``D + L`` (new numbering), for
        analysis: ``D`` the pivot blocks ``Dinv`` inverts, shift and any
        nudge included."""
        return self.L.to_csr()
