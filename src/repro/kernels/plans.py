"""The one execution plan of the substitution kernels.

``M^{-1} r`` with ``M = (D + L) D^{-1} (D + L)^T`` is, in the permuted
numbering, a whole-vector block-diagonal solve ``y = Dinv r`` followed by
one in-place update per schedule group in each direction:

    forward   y_g -= (Dinv_g L_g)   y      (columns: earlier groups)
    backward  y_g -= (Dinv_g L_g^T) y      (columns: later groups)

A :class:`SubstitutionPlan` holds exactly that, in one layout every
backend reads: per direction a :class:`FlatSweep` — the folded group
operators concatenated into a single CSR in *sweep order* (the backward
sweep stores the last group first, so both directions stream their
arrays front to back) — plus the CSR of the whole-vector ``Dinv``.

*Structure* (``indptr``, ``indices``, ``rows``, ``group_ptr``) is fixed
once by the symbolic phase (:meth:`ICSymbolic._build_apply_structures`)
and shared by every factorization built on that pattern; *data* belongs
to one factorization, is allocated once and refilled in place by every
numeric (re)factorization.  Operator values are stored **negated**, so a
group update is a pure accumulate ``y_g += op_g y`` — the form the
compiled ``csr_matvec`` kernels have (``y += A x``) — and because no
operator has a column inside its own rows (asserted by the symbolic
phase) the accumulate may read and write the same vector.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FlatSweep", "SubstitutionPlan"]


class FlatSweep:
    """One sweep direction: every group's operator in one CSR.

    Concatenated row ``t`` belongs to the ``g``-th group *of the sweep*
    iff ``group_ptr[g] <= t < group_ptr[g + 1]`` and updates DOF
    ``rows[t]`` of the permuted vector; its entries are
    ``indices/data[indptr[t]:indptr[t + 1]]`` with columns indexing the
    whole permuted vector and ``data`` holding ``-(Dinv_g L_g)``.  A
    group without entries keeps its (empty) rows, so the group count is
    that of the schedule.

    ``steps`` is the sweep as direct-kernel-call arguments, one tuple
    ``(nrows, indptr_slice, sel)`` per non-empty group: the compiled
    kernels index ``indices``/``data`` by the absolute offsets in
    ``indptr``, so a slice of it needs no rebasing.  ``sel`` is a
    ``slice`` when the group's DOFs are contiguous (every colour of a
    multicolour ordering is) and the index array ``rows[lo:hi]``
    otherwise (level-schedule waves of BIC(1)/(2)).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        rows: np.ndarray,
        group_ptr: np.ndarray,
    ) -> None:
        self.indptr, self.indices, self.rows, self.group_ptr = (
            indptr, indices, rows, group_ptr,
        )
        self.data = np.zeros(indices.size)
        self.steps: list[tuple] = []
        for lo, hi in zip(group_ptr[:-1].tolist(), group_ptr[1:].tolist()):
            if indptr[hi] == indptr[lo]:
                continue
            sel = rows[lo:hi]
            if (np.diff(sel) == 1).all():
                sel = slice(int(sel[0]), int(sel[0]) + hi - lo)
            self.steps.append((hi - lo, indptr[lo : hi + 1], sel))


class SubstitutionPlan:
    """Everything one ``M^{-1} r`` application reads and writes.

    ``dinv_indptr`` / ``dinv_indices`` / ``dinv_data`` are the CSR of the
    whole-vector block-diagonal ``Dinv`` (``dinv_data`` *is* the
    factorization's inverse-diagonal array: blocks stored row-major in
    DOF order are already in CSR order), ``fwd`` / ``bwd`` the two
    :class:`FlatSweep` directions.  ``y`` is the sweep's result vector
    and ``work`` the scratch of the non-contiguous groups, both
    allocated once: a sweep allocates nothing, and its result is valid
    until the next sweep of the same plan.
    """

    def __init__(
        self,
        dinv_indptr: np.ndarray,
        dinv_indices: np.ndarray,
        dinv_data: np.ndarray,
        fwd: FlatSweep,
        bwd: FlatSweep,
    ) -> None:
        self.ndof = dinv_indptr.size - 1
        self.dinv_indptr, self.dinv_indices, self.dinv_data = (
            dinv_indptr, dinv_indices, dinv_data,
        )
        self.fwd, self.bwd = fwd, bwd
        self.y = np.zeros(self.ndof)
        scattered = [n for n, _ptr, sel in fwd.steps + bwd.steps if type(sel) is not slice]
        self.work = np.zeros(max(scattered, default=0))
