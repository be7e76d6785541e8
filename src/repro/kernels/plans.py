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

*Structure* (``indptr``, ``indices``, ``group_ptr``) is fixed once by
the symbolic phase (:meth:`ICSymbolic._build_apply_structures`) and
shared by every factorization built on that pattern; *data* belongs to
one factorization, is allocated once and refilled in place by every
numeric (re)factorization.  Off-diagonal values are stored **negated**,
so a group update is the accumulate ``t_g += op_g y`` the compiled
kernels have; a group's operator only has columns in groups already
swept (asserted by the symbolic phase).
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["FlatSweep", "SubstitutionPlan"]


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
