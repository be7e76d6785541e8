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
*structure* of the flat substitution plan (:mod:`repro.kernels.plans`).
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

from repro.kernels import (
    FlatSweep,
    SubstitutionPlan,
    apply_substitution,
    apply_substitution_block,
)
from repro.obs import metric_inc, record_span
from repro.precond.base import Preconditioner
from repro.resilience.taxonomy import PivotNudgeWarning
from repro.reorder.coloring import Coloring
from repro.reorder.multicolor import multicolor
from repro.sparse.vbr import VBRMatrix, shape_buckets, supernode_maps
from repro.utils.indexing import ranges, sorted_unique
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
        chunks = _pairs_through_vertices(indptr, indices, n)
        keys.extend(chunks)
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
    - the index maps driving the numeric factorization sweeps (diagonal
      inversion buckets, dmod diagonal updates, full-variant triples),
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
        adj0 = self._supernode_adjacency(runs[0], runs[1], nsuper)
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
        self.sweep = np.concatenate(groups) if groups else self.order[:0]
        laps.lap("ic_symbolic.pattern")

        # ---- values-only scatter map A -> L (the refactor fast path)
        self._a_indptr = a.indptr
        self._a_indices = a.indices
        self._build_scatter_map(a, iorder, runs, local)
        del runs

        # ---- diagonal block storage layout
        self.diag_pos = self.pattern.indptr[1:] - 1
        if not np.array_equal(
            self.pattern.indices[self.diag_pos], np.arange(self.pattern.N)
        ):
            raise AssertionError("diagonal block is not last in some lower row")
        # inverse diagonal blocks, row-major, laid out in sweep order
        ends = np.cumsum(self.sizes[self.sweep] ** 2)
        self.dinv_size = int(ends[-1]) if ends.size else 0
        self.dinv_off = np.full(self.pattern.N + 1, self.dinv_size, dtype=np.int64)
        self.dinv_off[self.sweep] = ends - self.sizes[self.sweep] ** 2

        # ---- numeric-sweep index maps (gathers/scatters precomputed so
        # the numeric phase is pure fancy-index + batched matmul)
        self._build_diag_buckets()
        if self.variant == "dmod":
            self.dmod_updates = self._build_dmod_updates()
            self.full_updates = None
        else:
            self.full_updates = self._build_full_updates()
            self.dmod_updates = None
        laps.lap("ic_symbolic.maps")

        # ---- compiled substitution operator structures
        self._build_apply_structures()
        laps.lap("ic_symbolic.apply_structs")

        self.build_seconds = laps.total
        metric_inc("setup.symbolic")
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
        super-node block: ``(bi, bj, start, row)``, one entry per run.

        The DOF columns of a node map to one super-node, so a scalar
        row's entries come in runs of equal ``(bi, bj)``: whatever is
        looked up per block — the adjacency, the scatter map — is looked
        up on the run heads, a third of the scalars on 3-DOF nodes.
        """
        counts = np.diff(a.indptr)
        bj = snode_of[a.indices]
        head = np.ones(bj.size, dtype=bool)
        np.not_equal(bj[1:], bj[:-1], out=head[1:])
        head[a.indptr[:-1][counts > 0]] = True
        start = np.flatnonzero(head)
        row = np.repeat(np.arange(a.shape[0]), counts)[start]
        return snode_of[row], bj[start], start, row

    @staticmethod
    def _supernode_adjacency(bi: np.ndarray, bj: np.ndarray, n: int) -> sp.csr_matrix:
        """Symmetric 0/1 graph (no self loops) of the super-node pairs
        ``(bi, bj)`` — the block runs of the matrix."""
        off = bi != bj
        bi, bj = bi[off], bj[off]
        pairs = sorted_unique(np.maximum(bi, bj) * n + np.minimum(bi, bj))
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

    def _build_scatter_map(self, a: sp.csr_matrix, iorder, runs, local) -> None:
        """Map each lower-triangular entry of A to its slot in L's data.

        *runs* are the block runs of *a* (:meth:`_block_runs`), *iorder*
        takes their super-nodes to the new numbering: the block of a run
        is looked up once and repeated over its scalars.  A is canonical
        CSR, so every kept entry lands in a distinct slot and the numeric
        scatter is a single fancy-index assignment.
        """
        bi, bj, start, row = runs
        bi, bj = iorder[bi], iorder[bj]
        length = np.diff(np.append(start, a.nnz))
        lower = np.flatnonzero(bi >= bj)
        bj, start, length = bj[lower], start[lower], length[lower]
        pos = self.pattern.find_blocks(bi[lower], bj)
        if (pos < 0).any():
            raise ValueError("CSR entry outside the VBR pattern")
        src = ranges(start, length)
        dst = np.repeat(self.pattern.boff[pos] + local[row[lower]] * self.sizes[bj], length)
        dst += local[a.indices[src]]
        # both stay intp: numpy casts a narrower index array to intp on
        # every use, in a temporary as large as the map (+1.2 ms and two
        # transients of nnz(L) per refactor at 20k DOF, measured)
        self.scatter_src, self.scatter_dst = src, dst

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
    # numeric-sweep index maps
    # ------------------------------------------------------------------

    def _build_diag_buckets(self) -> None:
        """Per group: (s, L-data gather, dinv scatter) for diag inversion."""
        L = self.pattern
        self.diag_buckets: list[list[tuple]] = []
        for members in self.schedule:
            bucket = []
            for s, _sc, rows in shape_buckets(self.sizes, self.sizes, members):
                src = L.boff[self.diag_pos[rows], None] + np.arange(s * s)
                dst = self.dinv_off[rows, None] + np.arange(s * s)
                bucket.append((int(s), src, dst))
            self.diag_buckets.append(bucket)

    def _build_dmod_updates(self) -> list[list[tuple]]:
        """Per group: gather/scatter maps of the dmod diagonal recurrence
        ``D_i -= A_ik D_k^{-1} A_ik^T`` (k in earlier groups)."""
        L = self.pattern
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
                rows = brow[pos]
                ks = L.indices[pos]
                flat_ik = L.boff[pos, None] + np.arange(si * sk)
                dflat_k = self.dinv_off[ks, None] + np.arange(sk * sk)
                diag_dst = L.boff[self.diag_pos[rows], None] + np.arange(si * si)
                bucket.append((int(si), int(sk), flat_ik, dflat_k, diag_dst))
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
        """Per group: shape-bucketed gather/scatter maps of the full block
        IC update sweep, from the vectorized triples."""
        tk, pik, pjk, pij = self._build_triples()
        L = self.pattern
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
            flat_ik = L.boff[pik[idx], None] + np.arange(si * sk)
            flat_jk = L.boff[pjk[idx], None] + np.arange(sj * sk)
            dflat_k = self.dinv_off[tk[idx], None] + np.arange(sk * sk)
            flat_ij = L.boff[pij[idx], None] + np.arange(si * sj)
            out[g].append((si, sk, sj, flat_ik, flat_jk, dflat_k, flat_ij))
        return out

    # ------------------------------------------------------------------
    # structure of the substitution plan
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
        for buckets in self.full_updates or ():
            for si, sk, sj, flat_ik, flat_jk, _dk, flat_ij in buckets:
                live_i = mask[flat_ik].reshape(-1, si, sk).any(axis=2)
                live_j = mask[flat_jk].reshape(-1, sj, sk).any(axis=2)
                hit = live_i[:, :, None] & live_j[:, None, :]
                mask[flat_ij.reshape(-1, si, sj)[hit]] = True
        return mask

    def _build_apply_structures(self) -> None:
        """Fix the structure of the flat substitution plan and the maps
        that refill its data (:mod:`repro.kernels.plans`).

        The plan numbers rows and columns in sweep order — the DOFs of
        schedule group after schedule group (``plan_perm`` composes that
        with the ordering's own permutation) — and holds, row by row,
        the strictly-lower scalars of ``L`` that :meth:`_structural_mask`
        calls live: ``fwd_gather`` lists their slots in ``L.data`` in
        the CSR order of ``L``, ``bwd_gather`` in that of ``L^T``, and
        the numeric phase copies them out, negated, as they are.
        """
        n = self.ndof
        L = self.pattern
        sizes, offsets = self.sizes, L.offsets
        # the plan's index arrays are int32 whenever that holds them, and
        # so are the gather maps that ride through the transposition
        fits = max(n, int(L.boff[-1])) <= np.iinfo(np.int32).max
        idx = np.int32 if fits else np.int64

        # Block (i, k) gives the rows of i columns of k going forward and
        # the rows of k columns of i going backward: a sweep finds them
        # final iff k's group comes strictly before i's in the schedule.
        off = self._offdiag_positions()
        if (self.group_of[L.indices[off]] >= self.group_of[L.block_rows()[off]]).any():
            raise AssertionError(
                "substitution operator has a column inside its own group's "
                "rows or in a group not yet swept"
            )

        sweep = self.sweep
        dofs = ranges(offsets[sweep], sizes[sweep])  # plan row -> DOF of L
        where = np.empty(n, dtype=np.int64)  # DOF of L -> plan row
        where[dofs] = np.arange(n)
        start = where[offsets[:-1]]  # first plan row of every block
        self.plan_perm = self.perm_dof[dofs]
        self.group_ptr = np.concatenate(
            ([0], np.cumsum([sizes[members].sum() for members in self.schedule], dtype=np.int64))
        )

        # Dinv: block after block in sweep order, which dinv_off follows
        row_len = np.repeat(sizes[sweep], sizes[sweep])
        self.dinv_indptr = np.concatenate(([0], np.cumsum(row_len))).astype(idx)
        self.dinv_indices = ranges(np.repeat(start[sweep], sizes[sweep]), row_len).astype(idx)

        # Scalar row r of block row i reads sizes[k] consecutive slots of
        # each of its off-diagonal blocks (i, k), the diagonal block
        # being the last of the row: one segment per (plan row, block).
        block = np.repeat(sweep, sizes[sweep])
        nseg = np.diff(L.indptr)[block] - 1
        pos = ranges(L.indptr[block], nseg)
        width = sizes[L.indices[pos]]
        slots = ranges(L.boff[pos] + np.repeat(dofs - offsets[block], nseg) * width, width)
        live = np.flatnonzero(self._structural_mask()[slots])
        row_width = np.bincount(
            L.block_rows()[off], weights=sizes[L.indices[off]], minlength=L.N
        ).astype(np.int64)
        row_ends = np.cumsum(row_width[block])
        indptr = np.concatenate(([0], np.searchsorted(live, row_ends))).astype(idx)
        indices = ranges(start[L.indices[pos]], width).take(live).astype(idx)
        # L^T: scipy's transposition carries the slots along as data
        fwd = sp.csr_matrix((slots.take(live).astype(idx), indices, indptr), shape=(n, n))
        bwd = fwd.tocsc()
        self.fwd_struct, self.fwd_gather = (indptr, indices), fwd.data
        self.bwd_struct = (bwd.indptr.astype(idx, copy=False), bwd.indices.astype(idx, copy=False))
        self.bwd_gather = bwd.data

    def new_plan(self, dinv: np.ndarray) -> SubstitutionPlan:
        """Fresh plan sharing this pattern's structure arrays; its
        ``Dinv`` data is *dinv* itself, its sweep data its own."""
        return SubstitutionPlan(
            self.group_ptr,
            self.dinv_indptr,
            self.dinv_indices,
            dinv,
            FlatSweep(*self.fwd_struct),
            FlatSweep(*self.bwd_struct),
        )


# One shape bucket of the numeric update sweep per call: a gather, a
# batched matmul and a scatter over the index maps of the symbolic phase.
# A call's transients are freed when it returns, before the next bucket
# gathers (a dmod refactor allocates nothing of the factor's size).


def _dmod_update(data: np.ndarray, dinv: np.ndarray, bucket: tuple) -> None:
    """Batched dmod diagonal recurrence ``D_i -= A_ik D_k^{-1} A_ik^T``."""
    si, sk, flat_ik, dflat_k, diag_dst = bucket
    aik = data[flat_ik].reshape(-1, si, sk)
    dk = dinv[dflat_k].reshape(-1, sk, sk)
    upd = np.matmul(np.matmul(aik, dk), aik.transpose(0, 2, 1))
    np.add.at(data, diag_dst.reshape(-1), -upd.reshape(-1))


def _full_update(data: np.ndarray, dinv: np.ndarray, bucket: tuple) -> None:
    """Batched full block-IC update ``V_ij -= V_ik D_k^{-1} V_jk^T``."""
    si, sk, sj, flat_ik, flat_jk, dflat_k, flat_ij = bucket
    vik = data[flat_ik].reshape(-1, si, sk)
    vjk = data[flat_jk].reshape(-1, sj, sk)
    dk = dinv[dflat_k].reshape(-1, sk, sk)
    upd = np.matmul(np.matmul(vik, dk), vjk.transpose(0, 2, 1))
    np.add.at(data, flat_ij.reshape(-1), -upd.reshape(-1))


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
        self._order = symbolic.order
        self._group_of = symbolic.group_of
        self._diag_pos = symbolic.diag_pos
        self._dinv_off = symbolic.dinv_off

        # numeric state (per-instance): allocated here, refilled in place
        # by every refactor
        self.L = symbolic.new_vbr()
        self._dinv = np.zeros(symbolic.dinv_size)
        self._plan = symbolic.new_plan(self._dinv)
        self._plan_perm = symbolic.plan_perm
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
        self._build_apply_ops()
        laps.lap("ic_numeric.gather")
        # the lazy reference/apply_m structures cache gathered block
        # *values*; drop them so they rebuild from the new factor
        for attr in ("_fwd", "_bwd", "_diag_apply"):
            self.__dict__.pop(attr, None)
        self.numeric_setup_count += 1
        self.numeric_seconds = laps.total
        metric_inc("setup.numeric")
        if self.breakdown_count:
            metric_inc("setup.pivot_nudges", self.breakdown_count)
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
        for s, src, dst in self.symbolic.diag_buckets[g]:
            blocks = self.L.data[src].reshape(-1, s, s)
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
            inv = np.linalg.inv(blocks)
            self._dinv[dst.reshape(-1)] = inv.reshape(-1)

    def _factor_dmod(self) -> None:
        """GeoFEM pseudo-IC(0): refactorize diagonals only."""
        data = self.L.data
        for g in range(len(self.schedule)):
            for bucket in self.symbolic.dmod_updates[g]:
                _dmod_update(data, self._dinv, bucket)
            self._invert_group_diag(g)

    def _factor_full(self) -> None:
        """True block IC(k): update off-diagonal and fill blocks too."""
        data = self.L.data
        for g in range(len(self.schedule)):
            self._invert_group_diag(g)
            for bucket in self.symbolic.full_updates[g]:
                _full_update(data, self._dinv, bucket)

    @property
    def pivot_nudge_count(self) -> int:
        """Number of diagonal blocks whose pivot had to be regularized."""
        return self.breakdown_count

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

    def _gather_dinv(self, snodes: np.ndarray, s: int) -> np.ndarray:
        flat = self._dinv_off[snodes, None] + np.arange(s * s)
        return self._dinv[flat].reshape(-1, s, s)

    # ------------------------------------------------------------------
    # application  z = M^{-1} r
    # ------------------------------------------------------------------

    def _build_apply_ops(self) -> None:
        """Refill the substitution plan's data in place: the live
        strictly-lower entries of ``L``, negated, through the gather
        maps of the symbolic phase.  ``Dinv`` needs nothing — the plan
        reads ``self._dinv`` itself."""
        sym, plan = self.symbolic, self._plan
        for sweep, gather in ((plan.fwd, sym.fwd_gather), (plan.bwd, sym.bwd_gather)):
            # the gather indexes inside ``L.data`` by construction: "clip"
            # only spares np.take its bounds-checking copy of ``out``
            np.take(self.L.data, gather, out=sweep.data, mode="clip")
            np.negative(sweep.data, out=sweep.data)

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
        plan = self._plan
        # plan_perm is a permutation: "clip" only spares the bounds pass
        r.take(self._plan_perm, out=plan.t, mode="clip")
        y = apply_substitution(plan)
        if out is None:
            out = np.empty(self.ndof)
        out[self._plan_perm] = y
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
        y = apply_substitution_block(self._plan, r.take(self._plan_perm, axis=0))
        out[self._plan_perm, :] = y
        return out

    # -- bucketed reference path (correctness oracle) -------------------

    def _prepare_reference(self) -> None:
        """Pre-gather per-group shape buckets for the bucketed reference
        substitution (built lazily: only tests/benches and
        :meth:`apply_m` need it; invalidated by :meth:`refactor`)."""
        if hasattr(self, "_fwd"):
            return
        brow = self.L.block_rows()
        offdiag = self.symbolic._offdiag_positions()
        shape_r = self.sizes[brow]
        shape_c = self.sizes[self.L.indices]
        group_of = self._group_of

        ngroups = len(self.schedule)
        self._fwd: list[list[tuple]] = [[] for _ in range(ngroups)]
        self._bwd: list[list[tuple]] = [[] for _ in range(ngroups)]
        row_group = group_of[brow[offdiag]]
        col_group = group_of[self.L.indices[offdiag]]
        for g in range(ngroups):
            pos_g = offdiag[row_group == g]
            for sr, sc, pos in shape_buckets(shape_r, shape_c, pos_g):
                blocks = self.L.gather(pos, sr, sc)
                ridx = (self.L.offsets[brow[pos], None] + np.arange(sr)).reshape(-1)
                cidx = self.L.offsets[self.L.indices[pos], None] + np.arange(sc)
                self._fwd[g].append((blocks, ridx, cidx, sr))
            pos_g = offdiag[col_group == g]
            for sr, sc, pos in shape_buckets(shape_r, shape_c, pos_g):
                blocks_t = np.ascontiguousarray(
                    self.L.gather(pos, sr, sc).transpose(0, 2, 1)
                )
                ridx = self.L.offsets[brow[pos], None] + np.arange(sr)
                cidx = (self.L.offsets[self.L.indices[pos], None] + np.arange(sc)).reshape(-1)
                self._bwd[g].append((blocks_t, ridx, cidx, sc))

        # diagonal apply buckets: (s, dinv blocks, flat dof index) per group
        self._diag_apply: list[list[tuple]] = [[] for _ in range(ngroups)]
        for g, members in enumerate(self.schedule):
            for s, _sc, rows in shape_buckets(self.sizes, self.sizes, members):
                dof = (self.L.offsets[rows, None] + np.arange(s)).reshape(-1)
                self._diag_apply[g].append((self._gather_dinv(rows, s), dof, s))

    def reference_apply(self, r: np.ndarray) -> np.ndarray:
        """The original bucketed substitution (gather / batched matmul /
        scatter-add per shape bucket).  Kept as the correctness oracle for
        the compiled fast path; ``apply`` must agree to ~1e-13."""
        self._prepare_reference()
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (self.ndof,):
            raise ValueError(f"r must have shape ({self.ndof},), got {r.shape}")
        rp = r[self.perm_dof]
        n = self.ndof
        y = np.zeros(n)
        acc = rp.copy()
        # forward: (D + L) y = r
        for g in range(len(self.schedule)):
            for blocks, ridx, cidx, sr in self._fwd[g]:
                contrib = np.matmul(blocks, y[cidx][..., None])[..., 0]
                _scatter_add(acc, ridx, -contrib.reshape(-1))
            for dinv, dof, s in self._diag_apply[g]:
                seg = acc[dof].reshape(-1, s)
                y[dof] = np.matmul(dinv, seg[..., None])[..., 0].reshape(-1)
        # backward: z = y - D^{-1} L^T z
        z = np.zeros(n)
        acc2 = np.zeros(n)
        for g in range(len(self.schedule) - 1, -1, -1):
            for blocks_t, ridx, cidx, sc in self._bwd[g]:
                contrib = np.matmul(blocks_t, z[ridx][..., None])[..., 0]
                _scatter_add(acc2, cidx, contrib.reshape(-1))
            for dinv, dof, s in self._diag_apply[g]:
                seg = acc2[dof].reshape(-1, s)
                corr = np.matmul(dinv, seg[..., None])[..., 0].reshape(-1)
                z[dof] = y[dof] - corr
        out = np.empty(n)
        out[self.perm_dof] = z
        return out

    def apply_m(self, v: np.ndarray) -> np.ndarray:
        """Action of the preconditioning matrix itself:
        ``M v = (D + L) D^{-1} (D + L)^T v``.

        Needed by the eigenvalue analysis of Appendix A (generalized
        problem ``A x = lambda M x``).  Input/output in original DOF
        numbering, like :meth:`apply`.
        """
        self._prepare_reference()
        v = np.asarray(v, dtype=np.float64)
        vp = v[self.perm_dof]
        n = self.ndof
        # w = (D + L)^T vp  =  D vp + L^T vp
        w = self._mul_diag(vp)
        for g in range(len(self.schedule)):
            for blocks_t, ridx, cidx, _sc in self._bwd[g]:
                contrib = np.matmul(blocks_t, vp[ridx][..., None])[..., 0]
                _scatter_add(w, cidx, contrib.reshape(-1))
        # u = D^{-1} w
        u = np.empty(n)
        for g in range(len(self.schedule)):
            for dinv, dof, s in self._diag_apply[g]:
                seg = w[dof].reshape(-1, s)
                u[dof] = np.matmul(dinv, seg[..., None])[..., 0].reshape(-1)
        # out = (D + L) u = D u + L u
        out = self._mul_diag(u)
        for g in range(len(self.schedule)):
            for blocks, ridx, cidx, _sr in self._fwd[g]:
                contrib = np.matmul(blocks, u[cidx][..., None])[..., 0]
                _scatter_add(out, ridx, contrib.reshape(-1))
        res = np.empty(n)
        res[self.perm_dof] = out
        return res

    def _mul_diag(self, v: np.ndarray) -> np.ndarray:
        """``D v`` with the factorized diagonal blocks (VBR numbering)."""
        out = np.zeros(self.ndof)
        for s, _sc, rows in shape_buckets(self.sizes, self.sizes, np.arange(self.L.N)):
            pos = self._diag_pos[rows]
            blocks = self.L.gather(pos, s, s)
            dof = self.L.offsets[rows, None] + np.arange(s)
            seg = v[dof]
            out[dof.reshape(-1)] = np.matmul(blocks, seg[..., None])[..., 0].reshape(-1)
        return out

    def diag_blocks_dense(self) -> list[np.ndarray]:
        """Factorized diagonal blocks D-tilde, one per super-node."""
        return [self.L.block(self._diag_pos[i]).copy() for i in range(self.L.N)]

    # ------------------------------------------------------------------
    # introspection for the benches / performance model
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        return self.L.memory_bytes() + self._dinv.nbytes + self._dinv_off.nbytes

    def group_sizes(self) -> np.ndarray:
        """Rows per schedule group (the vector-loop lengths, pre-DJDS)."""
        return np.array([g.size for g in self.schedule], dtype=np.int64)

    def lower_offdiag_count(self) -> int:
        return int(self.L.nnzb - self.L.N)

    def factor_csr(self) -> sp.csr_matrix:
        """Scalar CSR of the lower factor (new numbering), for analysis."""
        return self.L.to_csr()
