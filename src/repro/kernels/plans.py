"""The one execution plan of the substitution kernels.

``M^{-1} r`` with ``M = (D + L) D^{-1} (D + L)^T`` is one pass over the
schedule groups in each direction, and every pass streams the factor's
own off-diagonal entries plus ``Dinv`` — GeoFEM's ``AL`` / ``AU`` /
``D~^{-1}`` sweep (paper section 3, DESIGN.md section 7):

    forward   t_g += (-L_g)   y ;  y_g  = Dinv_g t_g     (t starts as r)
    backward  t_g += (-L_g^T) y ;  y_g += Dinv_g t_g     (t starts as 0)

A :class:`SubstitutionPlan` holds exactly that, in one flat layout: the CSR of ``-L`` (:attr:`fwd`) and of ``-L^T``
(:attr:`bwd`) — the *live* strictly-lower entries of the factor, nothing
folded into them — the CSR of the block-diagonal ``Dinv``, and the row
ranges of the schedule groups.  Rows and columns are numbered in *sweep
order* (group after group; the colour ordering of a multicolour
schedule as it is, a level-schedule's waves renumbered), so every group
is a contiguous row range of all three matrices and of both vectors.

*Structure* (``indptr``, ``indices``, ``group_ptr``) is fixed once per
sparsity pattern by :func:`plan_structure`, which the symbolic phase
(:class:`~repro.precond.icfact.ICSymbolic`) calls and whose arrays it
keeps, and is shared by every factorization built on that pattern
(:func:`new_plan`); *data* belongs to one factorization, is allocated
once and refilled in place by every numeric (re)factorization
(:meth:`SubstitutionPlan.refill`).  Off-diagonal values are stored
**negated**, so a group update is the accumulate ``t_g += op_g y`` the
compiled kernels have; a group's operator only has columns in groups
already swept (:func:`plan_structure` asserts it).
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

from repro.utils.indexing import SETUP_CHUNK, chunks, ranges

__all__ = ["FlatSweep", "SubstitutionPlan", "new_plan", "plan_structure"]


class FlatSweep:
    """One sweep direction: the CSR of ``-L`` or ``-L^T`` in sweep order.

    Row ``t`` updates entry ``t`` of the sweep vectors; its entries are
    ``indices/data[indptr[t]:indptr[t + 1]]``.  ``data`` is this
    factorization's own; a refactor refills it in place.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr, self.indices = indptr, indices
        self.data = np.zeros(indices.size)


class SubstitutionPlan:
    """Everything one ``M^{-1} r`` application reads and writes.

    ``dinv_indptr`` / ``dinv_indices`` / ``dinv_data`` are the CSR of the
    block-diagonal ``Dinv`` (``dinv_data`` *is* the factorization's
    inverse-diagonal array: its blocks are stored row-major in sweep
    order, which is CSR order), ``fwd`` / ``bwd`` the two
    :class:`FlatSweep` directions, ``group_ptr`` the row range of every
    schedule group.  ``t`` takes the permuted residual and is consumed
    by the sweep; ``y`` is its result, valid until the next sweep of the
    same plan.  Both are allocated once: a sweep allocates nothing.

    ``fwd_steps`` / ``bwd_steps`` are the sweep as direct-kernel-call
    arguments, one tuple ``(nrows, l_indptr, d_indptr, t_g, y_g)`` per
    group in sweep order: the compiled kernels index ``indices`` /
    ``data`` by the absolute offsets in ``indptr``, so a slice of it
    needs no rebasing; ``t_g`` / ``y_g`` are the group's views of the
    two vectors.  ``l_indptr`` is ``None`` for a group without
    off-diagonal entries, which going backward is left out.
    """

    def __init__(
        self,
        group_ptr: np.ndarray,
        dinv_indptr: np.ndarray,
        dinv_indices: np.ndarray,
        dinv_data: np.ndarray,
        fwd: FlatSweep,
        bwd: FlatSweep,
    ) -> None:
        self.ndof = dinv_indptr.size - 1
        self.group_ptr = group_ptr
        self.dinv_indptr, self.dinv_indices, self.dinv_data = (
            dinv_indptr, dinv_indices, dinv_data,
        )
        self.fwd, self.bwd = fwd, bwd
        self.t = np.zeros(self.ndof)
        self.y = np.zeros(self.ndof)
        bounds = group_ptr.tolist()
        self._groups = [
            [
                (None if lptr[hi] == lptr[lo] else lptr[lo : hi + 1], dinv_indptr[lo : hi + 1], lo, hi)
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
            for lptr in (fwd.indptr, bwd.indptr)
        ]
        self._groups[1] = [group for group in self._groups[1][::-1] if group[0] is not None]
        self.fwd_steps, self.bwd_steps = self.steps(self.t, self.y)

    def steps(self, t: np.ndarray, y: np.ndarray) -> list[list[tuple]]:
        """Forward and backward kernel-call arguments for the sweep
        vectors (or row-major panels) *t* and *y*."""
        return [
            [(hi - lo, lptr, dptr, t[lo:hi], y[lo:hi]) for lptr, dptr, lo, hi in groups]
            for groups in self._groups
        ]

    def refill(self, values: np.ndarray, fwd_gather: np.ndarray, bwd_gather: np.ndarray) -> None:
        """Refill the sweep data in place: the factor's *values* at the
        gather maps of :func:`plan_structure`, negated.  ``Dinv`` needs
        nothing — its data is the factorization's own array."""
        for sweep, gather in ((self.fwd, fwd_gather), (self.bwd, bwd_gather)):
            # the gather indexes inside *values* by construction: "clip"
            # only spares np.take its bounds-checking copy of ``out``
            np.take(values, gather, out=sweep.data, mode="clip")
            np.negative(sweep.data, out=sweep.data)

    @functools.cached_property
    def halves(self) -> list[list[tuple[int, int, int]]]:
        """Forward and backward, the groups of :meth:`steps` cut in two:
        ``(lo, mid, hi)`` per group, ``mid`` the ``Dinv`` block start
        (or group end) nearest the row where the group's entries — of
        ``-L`` or ``-L^T``, plus ``Dinv`` — pass half their count.  A
        block's rows are never cut apart: ``y_g = Dinv_g t_g`` reads
        the whole block's ``t`` rows."""
        dptr = self.dinv_indptr
        starts = np.flatnonzero(self.dinv_indices[dptr[:-1]] == np.arange(self.ndof))
        starts = np.append(starts, self.ndof)  # every group ends at a block start
        out = []
        for sweep, groups in zip((self.fwd, self.bwd), self._groups):
            cost = sweep.indptr.astype(np.int64) + dptr  # entries before each row
            cut = []
            for _, _, lo, hi in groups:
                cand = starts[starts.searchsorted(lo) : starts.searchsorted(hi, "right")]
                mid = cand[np.abs(2 * cost[cand] - cost[lo] - cost[hi]).argmin()]
                cut.append((lo, int(mid), hi))
            out.append(cut)
        return out


def plan_structure(L, schedule: list[np.ndarray], group_of: np.ndarray, perm_dof: np.ndarray, live: np.ndarray):
    """The structure of the plan of a factor with the block pattern *L*
    (a :class:`~repro.sparse.vbr.VBRMatrix`, diagonal block last in each
    row), swept in the groups of super-nodes *schedule* (*group_of* the
    group of each), and the maps that refill its data.

    The plan numbers rows and columns in sweep order — the DOFs of
    schedule group after schedule group; ``plan_perm`` composes that
    with the ordering's own permutation *perm_dof* — and holds, row by
    row, the strictly-lower scalars of ``L`` that the mask *live* over
    ``L.data`` keeps: ``fwd_gather`` lists their slots in ``L.data`` in
    the CSR order of ``L``, ``bwd_gather`` in that of ``L^T``, and
    :meth:`SubstitutionPlan.refill` copies them out, negated, as they
    are.  ``Dinv`` is laid out block after block in sweep order.

    Returns ``(plan_perm, group_ptr, dinv_indptr, dinv_indices,
    fwd_struct, fwd_gather, bwd_struct, bwd_gather)``, each ``*_struct``
    an ``(indptr, indices)`` pair.
    """
    sizes, offsets = L.sizes, L.offsets
    n = L.ndof
    # the plan's index arrays are int32 whenever that holds them, and
    # so are the gather maps that ride through the transposition
    fits = max(n, int(L.boff[-1])) <= np.iinfo(np.int32).max
    idx = np.int32 if fits else np.int64

    # Block (i, k) gives the rows of i columns of k going forward and
    # the rows of k columns of i going backward: a sweep finds them
    # final iff k's group comes strictly before i's in the schedule.
    off = np.flatnonzero(L.indices != L.block_rows())
    if (group_of[L.indices[off]] >= group_of[L.block_rows()[off]]).any():
        raise AssertionError(
            "substitution operator has a column inside its own group's "
            "rows or in a group not yet swept"
        )

    sweep = np.concatenate(schedule) if schedule else np.zeros(0, dtype=np.int64)
    dofs = ranges(offsets[sweep], sizes[sweep])  # plan row -> DOF of L
    where = np.empty(n, dtype=np.int64)  # DOF of L -> plan row
    where[dofs] = np.arange(n)
    start = where[offsets[:-1]]  # first plan row of every block
    plan_perm = perm_dof[dofs]
    group_ptr = np.concatenate(
        ([0], np.cumsum([sizes[members].sum() for members in schedule], dtype=np.int64))
    )

    # Dinv: block after block in sweep order
    row_len = np.repeat(sizes[sweep], sizes[sweep])
    dinv_indptr = np.concatenate(([0], np.cumsum(row_len))).astype(idx)
    dinv_indices = ranges(np.repeat(start[sweep], sizes[sweep]), row_len).astype(idx)

    # Scalar row r of block row i reads sizes[k] consecutive slots of
    # each of its off-diagonal blocks (i, k), the diagonal block
    # being the last of the row: one segment per (plan row, block),
    # taken a range of plan rows at a time.
    block = np.repeat(sweep, sizes[sweep])
    row_width = np.bincount(
        L.block_rows()[off], weights=sizes[L.indices[off]], minlength=L.N
    ).astype(np.int64)
    row_ends = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_width[block], out=row_ends[1:])
    nblocks = np.diff(L.indptr)
    indptr = np.zeros(n + 1, dtype=idx)
    gathers, columns = [np.empty(0, dtype=idx)], [np.empty(0, dtype=idx)]
    for rows in chunks(n, max(int(row_ends[-1]) // 16, SETUP_CHUNK), row_ends):
        blk = block[rows]
        nseg = nblocks[blk] - 1
        pos = ranges(L.indptr[blk], nseg)
        width = sizes[L.indices[pos]]
        slots = ranges(L.boff[pos] + np.repeat(dofs[rows] - offsets[blk], nseg) * width, width)
        keep = np.flatnonzero(live[slots])
        ends = row_ends[rows.start + 1 : rows.stop + 1] - row_ends[rows.start]
        indptr[rows.start + 1 : rows.stop + 1] = indptr[rows.start] + np.searchsorted(keep, ends)
        gathers.append(slots.take(keep).astype(idx))
        columns.append(ranges(start[L.indices[pos]], width).take(keep).astype(idx))
    del live
    # L^T: scipy's transposition carries the slots along as data
    fwd = sp.csr_matrix(
        (np.concatenate(gathers), np.concatenate(columns), indptr), shape=(n, n)
    )
    del gathers, columns
    bwd = fwd.tocsc()
    return (
        plan_perm, group_ptr, dinv_indptr, dinv_indices,
        (indptr, fwd.indices), fwd.data,
        (bwd.indptr.astype(idx, copy=False), bwd.indices.astype(idx, copy=False)), bwd.data,
    )


def new_plan(structure, dinv: np.ndarray) -> SubstitutionPlan:
    """A factorization's plan on *structure* — any object keeping the
    arrays of :func:`plan_structure` under their names, as the symbolic
    phase does — sharing its arrays; the plan's ``Dinv`` data is *dinv*
    itself, its sweep data its own."""
    return SubstitutionPlan(
        structure.group_ptr,
        structure.dinv_indptr,
        structure.dinv_indices,
        dinv,
        FlatSweep(*structure.fwd_struct),
        FlatSweep(*structure.bwd_struct),
    )
