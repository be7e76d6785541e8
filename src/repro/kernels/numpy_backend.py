"""Pure numpy/scipy kernel backend (always available).

Batched numpy fancy-indexing plus ``matmul`` serve the factorization
update sweeps, and the sparse products — the substitution sweep, ``A p``
and ``A P`` — are **direct calls of scipy's compiled CSR kernels**
(``scipy.sparse._sparsetools.csr_matvec`` / ``csr_matvecs``), not
``op @ y``: one ``M^{-1} r`` is 1 + 2 x colours products of a few
hundred rows each, and at that size scipy's ``__matmul__`` dispatch
(``_matmul_dispatch``, ``isscalarlike``, a fresh ``np.zeros``, then a
second ``y[sel] -= tmp`` pass) costs as much as the kernel it wraps —
the per-colour fixed overhead of the paper's Figs. 26-29, with Python
dispatch in the place of OpenMP synchronisation.

What the kernels do, and what this module relies on (pinned by
``tests/test_kernels.py::TestSparsetoolsContract``):

- they *accumulate*: ``csr_matvec(m, n, indptr, indices, data, x, y)``
  computes ``y += A x`` (``csr_matvecs`` likewise on row-major panels);
- they index ``indices`` / ``data`` by the absolute offsets stored in
  ``indptr``, so ``indptr[lo:hi + 1]`` over the *full* ``indices`` /
  ``data`` is rows ``lo..hi`` of the matrix, no rebasing;
- ``x`` and ``y`` may be the same buffer when no row being written is a
  column being read;
- inputs of another dtype or stride are converted by the wrapper on
  every call (correct, but a copy per call — callers normalise once per
  solve instead); an output of the wrong dtype raises.

They check no bounds, so every entry point here validates the operand
shape before passing pointers.  These are the fallback when numba is
absent and the parity baseline the numba backend is tested against.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

NAME = "numpy"

_csr_matvec = _sparsetools.csr_matvec
_csr_matvecs = _sparsetools.csr_matvecs


def is_available() -> bool:
    return True


def warmup() -> float:
    """Nothing to compile; the registry still offers a uniform hook."""
    return 0.0


# ----------------------------------------------------------------------
# substitution sweep  z = (D + L)^{-T} D (D + L)^{-1} r  (permuted space)
# ----------------------------------------------------------------------


def apply_substitution(plan, rp: np.ndarray) -> np.ndarray:
    """Sweep the plan with one direct kernel call per group.

    Seed with the whole-vector diagonal solve ``y = Dinv r``, then
    accumulate the (negated) group operators in place: ``y_g += op_g y``
    forward, then backward.  A contiguous group is written through the
    view ``y[sel]``; a level-schedule wave goes through the plan's
    scratch and one ``y[sel] += w``.  Returns ``plan.y`` (valid until
    the plan is swept again).
    """
    n = plan.ndof
    if rp.shape != (n,):
        raise ValueError(f"rp must have shape ({n},), got {rp.shape}")
    y = plan.y
    y.fill(0.0)
    _csr_matvec(n, n, plan.dinv_indptr, plan.dinv_indices, plan.dinv_data, rp, y)
    for sweep in (plan.fwd, plan.bwd):
        indices, data = sweep.indices, sweep.data
        for nrows, ptr, sel in sweep.steps:
            if type(sel) is slice:
                _csr_matvec(nrows, n, ptr, indices, data, y, y[sel])
            else:
                w = plan.work[:nrows]
                w.fill(0.0)
                _csr_matvec(nrows, n, ptr, indices, data, y, w)
                y[sel] += w
    return y


def apply_substitution_block(plan, rp: np.ndarray) -> np.ndarray:
    """:func:`apply_substitution` for an ``(ndof, s)`` residual block.

    ``csr_matvecs`` multiplies dense row-major panels, so one read of
    each operator serves every column (the multi-RHS win the serve
    layer's block-CG batches for).  Returns a fresh ``(ndof, s)`` array;
    the waves' scratch panel is allocated once per call.

    The loop is :func:`apply_substitution`'s written out a second time
    on purpose: the two kernels differ by one positional argument, and
    passing it through ``*args`` in a shared loop measured +2-3 % per
    vector sweep (0.1-0.2 us on each ~1 us colour call).
    """
    n = plan.ndof
    if rp.ndim != 2 or rp.shape[0] != n:
        raise ValueError(f"rp must have shape ({n}, s), got {rp.shape}")
    s = rp.shape[1]
    y = np.zeros((n, s))
    _csr_matvecs(n, n, s, plan.dinv_indptr, plan.dinv_indices, plan.dinv_data, rp, y)
    work = np.empty((plan.work.size, s))
    for sweep in (plan.fwd, plan.bwd):
        indices, data = sweep.indices, sweep.data
        for nrows, ptr, sel in sweep.steps:
            if type(sel) is slice:
                _csr_matvecs(nrows, n, s, ptr, indices, data, y, y[sel])
            else:
                w = work[:nrows]
                w.fill(0.0)
                _csr_matvecs(nrows, n, s, ptr, indices, data, y, w)
                y[sel] += w
    return y


# ----------------------------------------------------------------------
# matrix-vector products
# ----------------------------------------------------------------------


def csr_matvec(a, x: np.ndarray) -> np.ndarray:
    """``A x`` for a scipy CSR matrix (square or not) and a flat vector."""
    m, n = a.shape
    if x.shape != (n,):
        raise ValueError(f"x must have shape ({n},), got {x.shape}")
    y = np.zeros(m)
    _csr_matvec(m, n, a.indptr, a.indices, a.data, x, y)
    return y


def csr_matvecs(a, x: np.ndarray) -> np.ndarray:
    """``A X`` for an ``(n, s)`` block: one pass over *a* for all columns."""
    m, n = a.shape
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError(f"x must have shape ({n}, s), got {x.shape}")
    y = np.zeros((m, x.shape[1]))
    _csr_matvecs(m, n, x.shape[1], a.indptr, a.indices, a.data, x, y)
    return y


def bcsr_matvec(mat, x: np.ndarray) -> np.ndarray:
    """Uniform-block matvec through the cached scipy BSR handle."""
    return mat.to_bsr() @ x


def vbr_matvec(mat, x: np.ndarray) -> np.ndarray:
    """Variable-block matvec, batched per block shape (Fig. 22 idiom)."""
    from repro.sparse.vbr import shape_buckets

    y = np.zeros(mat.ndof)
    all_pos = np.arange(mat.nnzb, dtype=np.int64)
    shape_r = mat.sizes[mat.block_rows_]
    shape_c = mat.sizes[mat.indices]
    for sr, sc, pos in shape_buckets(shape_r, shape_c, all_pos):
        blocks = mat.gather(pos, sr, sc)
        xseg = x[mat.offsets[mat.indices[pos], None] + np.arange(sc)]
        contrib = np.einsum("mrc,mc->mr", blocks, xseg)
        rows = mat.offsets[mat.block_rows_[pos], None] + np.arange(sr)
        np.add.at(y, rows.reshape(-1), contrib.reshape(-1))
    return y


# ----------------------------------------------------------------------
# numeric factorization update sweeps (one shape bucket per call)
# ----------------------------------------------------------------------


def dmod_update(data: np.ndarray, dinv: np.ndarray, bucket: tuple) -> None:
    """Batched dmod diagonal recurrence ``D_i -= A_ik D_k^{-1} A_ik^T``.

    ``bucket`` is one shape bucket of
    :meth:`~repro.precond.icfact.ICSymbolic._build_dmod_updates`; the
    trailing row-segmentation arrays are only needed by the JIT backend.
    """
    si, sk, flat_ik, dflat_k, diag_dst, _order, _seg_ptr = bucket
    aik = data[flat_ik].reshape(-1, si, sk)
    dk = dinv[dflat_k].reshape(-1, sk, sk)
    upd = np.matmul(np.matmul(aik, dk), aik.transpose(0, 2, 1))
    np.add.at(data, diag_dst.reshape(-1), -upd.reshape(-1))


def full_update(data: np.ndarray, dinv: np.ndarray, bucket: tuple) -> None:
    """Batched full block-IC update ``V_ij -= V_ik D_k^{-1} V_jk^T``."""
    si, sk, sj, flat_ik, flat_jk, dflat_k, flat_ij, _order, _seg_ptr = bucket
    vik = data[flat_ik].reshape(-1, si, sk)
    vjk = data[flat_jk].reshape(-1, sj, sk)
    dk = dinv[dflat_k].reshape(-1, sk, sk)
    upd = np.matmul(np.matmul(vik, dk), vjk.transpose(0, 2, 1))
    np.add.at(data, flat_ij.reshape(-1), -upd.reshape(-1))
