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
shape before passing pointers.  A sweep of a plan that the running
solve's team shares (:mod:`repro.kernels.team`) is run by the team, in
two processes; every other sweep and product runs here, in one call per
group or product.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

from repro.kernels import team as _team

_csr_matvec = _sparsetools.csr_matvec
_csr_matvecs = _sparsetools.csr_matvecs


# ----------------------------------------------------------------------
# substitution sweep  z = (D + L)^{-T} D (D + L)^{-1} r  (permuted space)
# ----------------------------------------------------------------------


def apply_substitution(plan, r: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Sweep the plan on ``r[perm]`` with two direct kernel calls per group.

    ``t`` takes the permuted residual and is consumed.  Forward, group
    after group: ``t_g += (-L_g) y`` then ``y_g = Dinv_g t_g``;
    backward, from the last group, on a zeroed ``t``:
    ``t_g += (-L_g^T) y`` then ``y_g += Dinv_g t_g``.  Every call reads
    one vector and accumulates into the other.  Returns ``y`` (valid
    until the plan is swept again): ``plan.y``, or the team's shared
    ``y`` when the running solve's team shares this plan (*r* is swept
    here alone if the partner is lost mid-sweep).
    """
    team = _team.sharing(plan)
    if team is not None and (y := team.sweep(r, perm)) is not None:
        return y
    n, t, y = plan.ndof, plan.t, plan.y
    # perm is a permutation: "clip" only spares the bounds pass
    r.take(perm, out=t, mode="clip")
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


def apply_substitution_block(plan, r: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """:func:`apply_substitution` for an ``(ndof, s)`` residual block.

    ``csr_matvecs`` multiplies dense row-major panels, so one read of
    each operator serves every column (the multi-RHS win the serve
    layer's block-CG batches for).  Returns a fresh ``(ndof, s)`` array,
    or the team's shared panel (valid until the plan is swept again).

    The loop is :func:`apply_substitution`'s written out a second time
    on purpose: the two kernels differ by one positional argument, and
    passing it through ``*args`` in a shared loop measured +2-3 % per
    vector sweep (0.1-0.2 us on each ~1 us colour call).
    """
    n = plan.ndof
    if r.ndim != 2 or r.shape[0] != n:
        raise ValueError(f"r must have shape ({n}, s), got {r.shape}")
    s = r.shape[1]
    team = _team.sharing(plan)
    if team is not None and (y := team.sweep(r, perm)) is not None:
        return y
    t, y = r.take(perm, axis=0), np.zeros((n, s))
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
