"""The solver's sparse products: direct calls of scipy's compiled kernels.

The substitution sweep, ``A p`` and ``A P`` are **direct calls of
scipy's compiled CSR kernels** (``scipy.sparse._sparsetools.csr_matvec``
/ ``csr_matvecs``), not ``op @ y``: one ``M^{-1} r`` is 4 x colours
products of a few hundred rows each, and at that size scipy's
``__matmul__`` dispatch (``_matmul_dispatch``, ``isscalarlike``, a fresh
``np.zeros``, then a second ``y[sel] -= tmp`` pass) costs as much as the
kernel it wraps — the per-colour fixed overhead of the paper's
Figs. 26-29, with Python dispatch in the place of OpenMP
synchronisation.

This module is what the solver relies on from that private scipy
module, and nothing else.  What the kernels do (pinned by
``tests/test_kernels.py::TestSparsetoolsContract``):

- they *accumulate*: ``csr_matvec(m, n, indptr, indices, data, x, y)``
  computes ``y += A x`` (``csr_matvecs`` likewise on row-major panels);
- they index ``indices`` / ``data`` by the absolute offsets stored in
  ``indptr``, so ``indptr[lo:hi + 1]`` over the *full* ``indices`` /
  ``data`` is rows ``lo..hi`` of the matrix, no rebasing;
- they touch nothing but ``y``, which may be a view of a longer vector
  (a group's rows), and rows without entries leave it as it was;
- inputs of another dtype or stride are converted by the wrapper on
  every call (correct, but a copy per call — callers normalise once per
  solve instead); an output of the wrong dtype raises.

They check no bounds, so every entry point here validates the operand
shape before passing pointers.  And they release the GIL while they
run, so a product of at least :data:`SPLIT_NNZ` nonzeros is cut in two
row ranges at the row where ``indptr`` passes ``nnz / 2``: a resident
helper thread computes one while the caller computes the other.  Every
row is still summed by one kernel call in the same order, so a split
product is bit-identical to the one-call product.
"""

from __future__ import annotations

import _thread
import os

import numpy as np
from scipy.sparse import _sparsetools

_csr_matvec = _sparsetools.csr_matvec
_csr_matvecs = _sparsetools.csr_matvecs

SPLIT_NNZ = 120_000
"""Products with fewer nonzeros run in one call.  A split costs a
handoff of about 23 us and two cores sharing one memory bus; measured on
a 2-core x86 host (leading rows of the swjapan 2.0 operator, split
against one call, best of 7 x 400 products, three rounds) it breaks even
between 60k nonzeros (0.8-1.1x) and 80k (1.1-1.2x), and is ahead in
every round from 120k (1.1-1.4x; 1.4-1.7x at 150k, 1.5-1.8x on the whole
837k).  An 8-column panel has 8 times the work per nonzero and is ahead
from about 30k, but one floor serves both kernels."""


# ----------------------------------------------------------------------
# the helper thread: half of every large product
# ----------------------------------------------------------------------


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


class _Helper:
    """One resident thread that runs one kernel call per handoff.

    The caller takes :attr:`free`, posts the call and releases
    :attr:`go`; the helper runs it and releases :attr:`done`.  Raw
    ``_thread`` locks, because ``threading.Semaphore`` doubles the cost
    of a round trip (about 45 us against 23)."""

    def __init__(self) -> None:
        self.free = _thread.allocate_lock()
        self.go, self.done = _thread.allocate_lock(), _thread.allocate_lock()
        self.go.acquire()
        self.done.acquire()
        self.job = self.error = None
        _thread.start_new_thread(self._serve, ())

    def _serve(self) -> None:
        while True:
            self.go.acquire()
            kernel, args = self.job
            try:
                kernel(*args)
            except BaseException as exc:  # the caller raises it
                self.error = exc
            self.done.release()

    def split(self, kernel, head: tuple, tail: tuple) -> bool:
        """Run ``kernel(*head)`` on this thread and ``kernel(*tail)`` on
        the helper; False, having run nothing, when the helper is busy
        with another caller's product.  A kernel error on the helper is
        raised here.  :attr:`free` is released once the helper is done;
        only an interrupt during that wait leaves it taken (the helper
        may still be writing), so later products run in one call."""
        if not self.free.acquire(False):
            return False
        self.job = (kernel, tail)
        self.go.release()
        try:
            kernel(*head)
        finally:
            self.done.acquire()
            error, self.error, self.job = self.error, None, None
            self.free.release()
        if error is not None:
            raise error
        return True


_helper = _Helper() if _cpus() >= 2 else None
"""The process's helper: only where two CPUs are visible, and only in
the process that imported this module.  A forked child (a rank worker,
a pool worker, the ALM child) drops it: it shares the cores with its
peers already, and it must never signal a thread it does not have."""


def _forget_helper() -> None:
    global _helper
    _helper = None


os.register_at_fork(after_in_child=_forget_helper)


def matvec_threads(nnz: int = SPLIT_NNZ) -> int:
    """How many threads a product of *nnz* nonzeros runs on in this
    process when the helper is free: 2 or 1."""
    return 2 if _helper is not None and nnz >= SPLIT_NNZ else 1


def _mid_row(indptr: np.ndarray, m: int) -> int:
    """The row where ``indptr`` passes half the nonzeros."""
    return int(indptr.searchsorted(indptr[m] // 2))


# ----------------------------------------------------------------------
# substitution sweep  z = (D + L)^{-T} D (D + L)^{-1} r  (permuted space)
# ----------------------------------------------------------------------


def apply_substitution(plan) -> np.ndarray:
    """Sweep the plan with two direct kernel calls per group.

    ``plan.t`` holds the permuted residual and is consumed.  Forward,
    group after group: ``t_g += (-L_g) y`` then ``y_g = Dinv_g t_g``;
    backward, from the last group, on a zeroed ``t``:
    ``t_g += (-L_g^T) y`` then ``y_g += Dinv_g t_g``.  Every call reads
    one vector and accumulates into the other.  Returns ``plan.y``
    (valid until the plan is swept again).
    """
    n, t, y = plan.ndof, plan.t, plan.y
    y.fill(0.0)
    dinv_indices, dinv_data = plan.dinv_indices, plan.dinv_data
    for sweep, steps in ((plan.fwd, plan.fwd_steps), (plan.bwd, plan.bwd_steps)):
        indices, data = sweep.indices, sweep.data
        for nrows, lptr, dptr, tg, yg in steps:
            if lptr is not None:
                _csr_matvec(nrows, n, lptr, indices, data, y, tg)
            _csr_matvec(nrows, n, dptr, dinv_indices, dinv_data, t, yg)
        t.fill(0.0)
    return y


def apply_substitution_block(plan, rp: np.ndarray) -> np.ndarray:
    """:func:`apply_substitution` for an ``(ndof, s)`` residual block.

    ``csr_matvecs`` multiplies dense row-major panels, so one read of
    each operator serves every column (the multi-RHS win the serve
    layer's block-CG batches for).  *rp* must be a C-contiguous float64
    panel the caller gives up: it is the sweep's ``t``.  Returns a fresh
    ``(ndof, s)`` array.

    The loop is :func:`apply_substitution`'s written out a second time
    on purpose: the two kernels differ by one positional argument, and
    passing it through ``*args`` in a shared loop measured +2-3 % per
    vector sweep (0.1-0.2 us on each ~1 us colour call).
    """
    n = plan.ndof
    if rp.ndim != 2 or rp.shape[0] != n:
        raise ValueError(f"rp must have shape ({n}, s), got {rp.shape}")
    s = rp.shape[1]
    t, y = rp, np.zeros((n, s))
    dinv_indices, dinv_data = plan.dinv_indices, plan.dinv_data
    for sweep, steps in zip((plan.fwd, plan.bwd), plan.steps(t, y)):
        indices, data = sweep.indices, sweep.data
        for nrows, lptr, dptr, tg, yg in steps:
            if lptr is not None:
                _csr_matvecs(nrows, n, s, lptr, indices, data, y, tg)
            _csr_matvecs(nrows, n, s, dptr, dinv_indices, dinv_data, t, yg)
        t.fill(0.0)
    return y


# ----------------------------------------------------------------------
# matrix-vector products
# ----------------------------------------------------------------------


def _product(kernel, a, lead: tuple, x: np.ndarray, y: np.ndarray) -> None:
    """``y += A x`` by *kernel* (whose arguments after the row count are
    *lead*), split at :func:`_mid_row` across the helper when *a* has at
    least :data:`SPLIT_NNZ` nonzeros and the helper is free."""
    m = y.shape[0]
    indptr, indices, data = a.indptr, a.indices, a.data
    if _helper is not None and indptr[m] >= SPLIT_NNZ:
        k = _mid_row(indptr, m)
        if _helper.split(
            kernel,
            (k, *lead, indptr[: k + 1], indices, data, x, y[:k]),
            (m - k, *lead, indptr[k:], indices, data, x, y[k:]),
        ):
            return
    kernel(m, *lead, indptr, indices, data, x, y)


def csr_matvec(a, x: np.ndarray) -> np.ndarray:
    """``A x`` for a scipy CSR matrix (square or not) and a flat vector."""
    m, n = a.shape
    if x.shape != (n,):
        raise ValueError(f"x must have shape ({n},), got {x.shape}")
    y = np.zeros(m)
    _product(_csr_matvec, a, (n,), x, y)
    return y


def csr_matvecs(a, x: np.ndarray) -> np.ndarray:
    """``A X`` for an ``(n, s)`` block: one pass over *a* for all columns."""
    m, n = a.shape
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError(f"x must have shape ({n}, s), got {x.shape}")
    y = np.zeros((m, x.shape[1]))
    _product(_csr_matvecs, a, (n, x.shape[1]), x, y)
    return y
