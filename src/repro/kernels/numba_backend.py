"""Numba JIT kernel backend: parallel color-group sweeps.

All kernels are flat-array ``@njit(parallel=True, cache=True)`` loops
over the position-as-data structures the symbolic phase already extracts
(DESIGN.md section 9): CSR triples, the flat substitution plan
(:mod:`repro.kernels.plans` — the same arrays the numpy backend sweeps),
and row-segmented gather/scatter index maps.  Parallelism follows the
paper's section 4.2 invariant — rows inside one color group (or level
wave) are independent — so each group is a ``prange`` over rows with a
sequential loop across groups, the RAINBOW ``sweep_worker`` pattern.
Scatter targets of the factorization updates are segmented by
destination block on a bucket's first dispatch here (``_row_segments``),
making the ``prange`` over segments write-conflict-free.

The numba import is guarded: when numba is missing, :func:`is_available`
returns False and the registry silently serves the numpy backend.  The
kernels below are still *defined* in that case — as plain Python
functions (``prange`` = ``range``) — so the test suite can check the
JIT kernels' logic for parity against the numpy backend even in a
numpy-only environment.  They are never dispatched to in production
without numba.
"""

from __future__ import annotations

import time

import numpy as np

try:  # guarded optional dependency: pip install 'repro[jit]'
    import numba as _nb

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    _nb = None
    HAVE_NUMBA = False

if HAVE_NUMBA:
    prange = _nb.prange

    def _jit(fn):
        return _nb.njit(parallel=True, cache=True)(fn)

else:
    prange = range

    def _jit(fn):
        return fn


NAME = "numba"

_warmed = False


def is_available() -> bool:
    return HAVE_NUMBA


# ----------------------------------------------------------------------
# JIT kernels (flat arrays only; no Python objects cross this line)
# ----------------------------------------------------------------------


@_jit
def _csr_matvec_kernel(indptr, indices, data, x, y):
    for i in prange(indptr.size - 1):
        s = 0.0
        for jj in range(indptr[i], indptr[i + 1]):
            s += data[jj] * x[indices[jj]]
        y[i] = s


@_jit
def _csr_matvecs_kernel(indptr, indices, data, x, y):
    for i in prange(indptr.size - 1):
        for c in range(x.shape[1]):
            s = 0.0
            for jj in range(indptr[i], indptr[i + 1]):
                s += data[jj] * x[indices[jj], c]
            y[i, c] = s


@_jit
def _substitution_kernel(dptr, dind, ddat, fptr, find, fdat, bptr, bind, bdat, gptr, t, y):
    # operator values are stored negated; groups in sequence, rows of one
    # group in parallel (operator columns only reference groups already
    # swept).  forward: t_g += (-L_g) y, then y_g = Dinv_g t_g
    for g in range(gptr.size - 1):
        for i in prange(gptr[g], gptr[g + 1]):
            s = t[i]
            for jj in range(fptr[i], fptr[i + 1]):
                s += fdat[jj] * y[find[jj]]
            t[i] = s
        for i in prange(gptr[g], gptr[g + 1]):
            s = 0.0
            for jj in range(dptr[i], dptr[i + 1]):
                s += ddat[jj] * t[dind[jj]]
            y[i] = s
    # backward: t_g = (-L_g^T) y, then y_g += Dinv_g t_g
    for g in range(gptr.size - 2, -1, -1):
        for i in prange(gptr[g], gptr[g + 1]):
            s = 0.0
            for jj in range(bptr[i], bptr[i + 1]):
                s += bdat[jj] * y[bind[jj]]
            t[i] = s
        for i in prange(gptr[g], gptr[g + 1]):
            s = y[i]
            for jj in range(dptr[i], dptr[i + 1]):
                s += ddat[jj] * t[dind[jj]]
            y[i] = s


@_jit
def _bcsr_matvec_kernel(indptr, indices, values, x, y, b):
    for i in prange(indptr.size - 1):
        r0 = i * b
        for p in range(indptr[i], indptr[i + 1]):
            c0 = indices[p] * b
            for r in range(b):
                s = 0.0
                for c in range(b):
                    s += values[p, r, c] * x[c0 + c]
                y[r0 + r] += s


@_jit
def _vbr_matvec_kernel(sizes, offsets, indptr, indices, boff, data, x, y):
    for i in prange(sizes.size):
        si = sizes[i]
        r0 = offsets[i]
        for p in range(indptr[i], indptr[i + 1]):
            j = indices[p]
            sj = sizes[j]
            c0 = offsets[j]
            base = boff[p]
            for r in range(si):
                s = 0.0
                for c in range(sj):
                    s += data[base + r * sj + c] * x[c0 + c]
                y[r0 + r] += s


@_jit
def _dmod_update_kernel(data, dinv, si, sk, flat_ik, dflat_k, diag_dst, order, seg_ptr):
    # one segment = all updates hitting one diagonal block, so the prange
    # over segments never write-collides; reads (off-diagonal blocks,
    # earlier-group Dinv) are disjoint from the diagonal write targets
    for seg in prange(seg_ptr.size - 1):
        tmp = np.empty((si, sk))
        for t in range(seg_ptr[seg], seg_ptr[seg + 1]):
            p = order[t]
            fik = flat_ik[p]
            fdk = dflat_k[p]
            dst = diag_dst[p]
            # tmp = A_ik @ Dinv_k
            for r in range(si):
                for c in range(sk):
                    s = 0.0
                    for q in range(sk):
                        s += data[fik[r * sk + q]] * dinv[fdk[q * sk + c]]
                    tmp[r, c] = s
            # D_i -= tmp @ A_ik^T
            for r in range(si):
                for c in range(si):
                    s = 0.0
                    for q in range(sk):
                        s += tmp[r, q] * data[fik[c * sk + q]]
                    data[dst[r * si + c]] -= s


@_jit
def _full_update_kernel(
    data, dinv, si, sk, sj, flat_ik, flat_jk, dflat_k, flat_ij, order, seg_ptr
):
    # segments group updates by destination block (i, j); reads are
    # column-group-k blocks, writes are later-column-group blocks, so
    # segments only conflict among themselves — which the serial inner
    # loop resolves
    for seg in prange(seg_ptr.size - 1):
        tmp = np.empty((si, sk))
        for t in range(seg_ptr[seg], seg_ptr[seg + 1]):
            p = order[t]
            fik = flat_ik[p]
            fjk = flat_jk[p]
            fdk = dflat_k[p]
            dst = flat_ij[p]
            # tmp = V_ik @ Dinv_k
            for r in range(si):
                for c in range(sk):
                    s = 0.0
                    for q in range(sk):
                        s += data[fik[r * sk + q]] * dinv[fdk[q * sk + c]]
                    tmp[r, c] = s
            # V_ij -= tmp @ V_jk^T
            for r in range(si):
                for c in range(sj):
                    s = 0.0
                    for q in range(sk):
                        s += tmp[r, q] * data[fjk[c * sk + q]]
                    data[dst[r * sj + c]] -= s


# ----------------------------------------------------------------------
# python-level wrappers (the registry's uniform kernel interface)
# ----------------------------------------------------------------------


def _csr64(a):
    """int64 views of a scipy CSR's index arrays, cached on the matrix.

    scipy defaults to int32 indices; casting once per matrix (instead of
    per matvec) keeps the hot path copy-free and the JIT kernel pinned
    to a single (int64, float64) specialization.
    """
    cached = getattr(a, "_repro_idx64", None)
    if cached is None or cached[0].size != a.indptr.size:
        cached = (
            np.asarray(a.indptr, dtype=np.int64),
            np.asarray(a.indices, dtype=np.int64),
        )
        try:
            a._repro_idx64 = cached
        except AttributeError:  # pragma: no cover - csr accepts attributes
            pass
    return cached


def apply_substitution(plan) -> np.ndarray:
    fwd, bwd = plan.fwd, plan.bwd
    _substitution_kernel(
        plan.dinv_indptr, plan.dinv_indices, plan.dinv_data,
        fwd.indptr, fwd.indices, fwd.data,
        bwd.indptr, bwd.indices, bwd.data, plan.group_ptr, plan.t, plan.y,
    )
    return plan.y


def csr_matvec(a, x: np.ndarray) -> np.ndarray:
    indptr, indices = _csr64(a)
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.empty(a.shape[0])
    _csr_matvec_kernel(indptr, indices, np.asarray(a.data, dtype=np.float64), x, y)
    return y


def csr_matvecs(a, x: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or x.shape[0] != a.shape[1]:
        raise ValueError(f"x must have shape ({a.shape[1]}, s), got {x.shape}")
    indptr, indices = _csr64(a)
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.empty((a.shape[0], x.shape[1]))
    _csr_matvecs_kernel(indptr, indices, np.asarray(a.data, dtype=np.float64), x, y)
    return y


def bcsr_matvec(mat, x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.zeros(mat.ndof)
    _bcsr_matvec_kernel(
        np.asarray(mat.indptr, dtype=np.int64),
        np.asarray(mat.indices, dtype=np.int64),
        mat.values, x, y, mat.b,
    )
    return y


def vbr_matvec(mat, x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.zeros(mat.ndof)
    _vbr_matvec_kernel(
        mat.sizes, mat.offsets, mat.indptr, mat.indices, mat.boff, mat.data, x, y
    )
    return y


def _row_segments(segments: list, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, seg_ptr)`` of a shape bucket, derived on first use and
    kept in the bucket's *segments* slot.

    Updates hitting one destination block (the rows of *dst*, told apart
    by their first slot) land in one contiguous segment of ``order``, in
    their given order; the parallel kernels dispatch one worker per
    segment so they never race.
    """
    if not segments:
        keys = dst[:, 0]
        order = np.argsort(keys, kind="stable")
        sk = keys[order]
        bounds = np.concatenate([[0], np.flatnonzero(np.diff(sk)) + 1, [sk.size]])
        segments[:] = order.astype(np.int64), bounds.astype(np.int64)
    return segments


def dmod_update(data: np.ndarray, dinv: np.ndarray, bucket: tuple) -> None:
    si, sk, flat_ik, dflat_k, diag_dst, segments = bucket
    order, seg_ptr = _row_segments(segments, diag_dst)
    _dmod_update_kernel(data, dinv, si, sk, flat_ik, dflat_k, diag_dst, order, seg_ptr)


def full_update(data: np.ndarray, dinv: np.ndarray, bucket: tuple) -> None:
    si, sk, sj, flat_ik, flat_jk, dflat_k, flat_ij, segments = bucket
    order, seg_ptr = _row_segments(segments, flat_ij)
    _full_update_kernel(
        data, dinv, si, sk, sj, flat_ik, flat_jk, dflat_k, flat_ij, order, seg_ptr
    )


def warmup(force: bool = False) -> float:
    """Compile every kernel on tiny inputs; returns the wall time spent.

    One-time per process (``cache=True`` usually makes even the first
    call cheap); benches call this before timing so JIT compilation
    never pollutes steady-state measurements.  No-op without numba.
    """
    global _warmed
    if not HAVE_NUMBA or (_warmed and not force):
        return 0.0
    t0 = time.perf_counter()
    i32 = lambda *v: np.asarray(v, dtype=np.int32)  # noqa: E731
    i64 = lambda *v: np.asarray(v, dtype=np.int64)  # noqa: E731
    f64 = lambda *v: np.asarray(v, dtype=np.float64)  # noqa: E731

    _csr_matvec_kernel(i64(0, 1, 2), i64(0, 1), f64(1.0, 1.0), f64(1.0, 2.0), np.empty(2))
    _csr_matvecs_kernel(
        i64(0, 1, 2), i64(0, 1), f64(1.0, 1.0), np.ones((2, 2)), np.empty((2, 2))
    )
    # the plan's index arrays are int32 (group_ptr stays int64)
    _substitution_kernel(
        i32(0, 1, 2), i32(0, 1), f64(1.0, 1.0),
        i32(0, 0, 1), i32(0), f64(-0.5),
        i32(0, 1, 1), i32(1), f64(-0.5), i64(0, 1, 2), f64(1.0, 2.0), np.empty(2),
    )
    _bcsr_matvec_kernel(
        i64(0, 1), i64(0), np.ones((1, 2, 2)), f64(1.0, 1.0), np.zeros(2), 2
    )
    _vbr_matvec_kernel(
        i64(2), i64(0, 2), i64(0, 1), i64(0), i64(0, 4), np.ones(4),
        f64(1.0, 1.0), np.zeros(2),
    )
    _dmod_update_kernel(
        np.ones(2), np.ones(1), 1, 1,
        i64(0).reshape(1, 1), i64(0).reshape(1, 1), i64(1).reshape(1, 1),
        i64(0), i64(0, 1),
    )
    _full_update_kernel(
        np.ones(3), np.ones(1), 1, 1, 1,
        i64(0).reshape(1, 1), i64(1).reshape(1, 1), i64(0).reshape(1, 1),
        i64(2).reshape(1, 1), i64(0), i64(0, 1),
    )
    _warmed = True
    return time.perf_counter() - t0
