import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import tracemalloc

from repro.parallel import DistributedSystem, parallel_cg
from repro.precond import DiagonalScaling
from repro.precond.base import IdentityPreconditioner
from repro.resilience import FailureReason, SolveReport
from repro.solvers.cg import cg_solve
from repro.sparse.bcsr import BCSRMatrix


def spd(n, seed, density=0.3):
    m = sp.random(n, n, density=density, random_state=np.random.RandomState(seed))
    a = (m + m.T).tocsr()
    a.setdiag(np.asarray(abs(a).sum(axis=1)).reshape(-1) + 1.0)
    return sp.csr_matrix(a)


class TestBasics:
    def test_identity_converges_immediately(self):
        a = sp.eye(5).tocsr()
        b = np.arange(1.0, 6.0)
        res = cg_solve(a, b)
        assert res.converged and res.iterations <= 1
        assert np.allclose(res.x, b)

    def test_zero_rhs(self):
        a = spd(6, 0)
        res = cg_solve(a, np.zeros(6))
        assert res.converged and res.iterations == 0
        assert np.allclose(res.x, 0)

    def test_solves_random_spd(self):
        a = spd(30, 1)
        x = np.random.default_rng(2).normal(size=30)
        res = cg_solve(a, a @ x, eps=1e-12)
        assert res.converged
        assert np.allclose(res.x, x, atol=1e-6)

    def test_x0_warm_start(self):
        a = spd(20, 3)
        x = np.random.default_rng(4).normal(size=20)
        b = a @ x
        cold = cg_solve(a, b)
        warm = cg_solve(a, b, x0=x + 1e-10)
        assert warm.iterations <= cold.iterations

    def test_max_iter_flags_nonconvergence(self):
        a = spd(50, 5, density=0.2)
        res = cg_solve(a, np.ones(50), max_iter=1, eps=1e-16)
        assert not res.converged
        assert res.iterations == 1

    def test_history_recorded_and_final_below_eps(self):
        a = spd(25, 6)
        res = cg_solve(a, np.ones(25), eps=1e-8)
        assert res.history.size == res.iterations + 1
        assert res.history[-1] <= 1e-8

    def test_history_disabled(self):
        a = spd(10, 7)
        res = cg_solve(a, np.ones(10), record_history=False)
        assert res.history.size == 0

    def test_repr_mentions_status(self):
        a = spd(8, 8)
        res = cg_solve(a, np.ones(8))
        assert "converged" in repr(res)

    def test_total_seconds(self):
        a = spd(8, 9)
        res = cg_solve(a, np.ones(8))
        assert res.total_seconds >= res.solve_seconds


class TestOperatorAdapters:
    def test_bcsr_matrix_accepted(self):
        rng = np.random.default_rng(10)
        dense = rng.normal(size=(9, 9))
        spd_dense = dense @ dense.T + 9 * np.eye(9)
        m = BCSRMatrix.from_scipy(sp.csr_matrix(spd_dense))
        x = rng.normal(size=9)
        res = cg_solve(m, spd_dense @ x, eps=1e-12)
        assert res.converged and np.allclose(res.x, x, atol=1e-6)

    def test_dense_array_accepted(self):
        rng = np.random.default_rng(11)
        dense = rng.normal(size=(6, 6))
        a = dense @ dense.T + 6 * np.eye(6)
        res = cg_solve(a, np.ones(6), eps=1e-12)
        assert res.converged

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            cg_solve("not a matrix", np.ones(3))

    def test_preconditioner_accelerates_illconditioned(self):
        d = np.logspace(0, 6, 40)
        a = sp.diags(d).tocsr()
        b = np.ones(40)
        plain = cg_solve(a, b, eps=1e-10, max_iter=2000)
        pre = cg_solve(a, b, DiagonalScaling(a), eps=1e-10)
        assert pre.iterations < plain.iterations


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 10_000))
def test_property_cg_solves_spd(n, seed):
    a = spd(n, seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    res = cg_solve(a, a @ x, eps=1e-11)
    assert res.converged
    assert np.linalg.norm(res.x - x) <= 1e-5 * max(np.linalg.norm(x), 1.0)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 10_000))
def test_property_residual_matches_reported(n, seed):
    a = spd(n, seed)
    b = np.random.default_rng(seed).normal(size=n)
    res = cg_solve(a, b, eps=1e-9)
    true_rel = np.linalg.norm(b - a @ res.x) / np.linalg.norm(b)
    assert np.isclose(true_rel, res.relative_residual, rtol=1e-6, atol=1e-12)


# ----------------------------------------------------------------------
# one CG body: cg_solve is the one-rank case of parallel_cg's program
# ----------------------------------------------------------------------


def _one_domain(a, b):
    """The whole system as a single-rank distributed one (scalar blocks,
    so any dimension partitions)."""
    return DistributedSystem.from_global(
        a, b, np.zeros(b.size, dtype=np.int64),
        lambda sub, nodes: IdentityPreconditioner(), b=1,
    )


def _nan_operator():
    a = spd(12, 7).tolil()
    a[3, 3] = np.nan
    return a.tocsr(), np.ones(12)


def _ill_conditioned():
    """Demanding a 1% residual drop every 5 iterations on this diagonal
    must trip the stagnation window."""
    return sp.diags(np.logspace(0, 13, 200)).tocsr(), np.random.default_rng(0).normal(size=200)


STOP_CASES = {
    # name: (system, solver options, reason, detail, iterations)
    "nan": (_nan_operator, {}, FailureReason.NAN_DETECTED, "p.q = nan", 0),
    "indefinite": (
        lambda: (sp.diags([1.0, -1.0, 2.0]).tocsr(), np.ones(3)),
        {"max_iter": 50}, FailureReason.BREAKDOWN_INDEFINITE, "p.q = -", None,
    ),
    "stagnation": (
        _ill_conditioned,
        {"eps": 1e-15, "max_iter": 5000, "stagnation_window": 5},
        FailureReason.STAGNATION, "no 1% improvement in 5 iterations", 5,
    ),
    "time_budget": (
        lambda: (spd(50, 5, density=0.2), np.ones(50)),
        {"eps": 1e-30, "time_budget": 0.0}, FailureReason.TIME_BUDGET, "budget exhausted", 1,
    ),
    "max_iter": (
        lambda: (spd(50, 5, density=0.2), np.ones(50)),
        {"eps": 1e-16, "max_iter": 2}, FailureReason.MAX_ITER, "cap 2", 2,
    ),
}


class TestOneBody:
    @pytest.mark.parametrize("case", sorted(STOP_CASES))
    def test_stop_condition_same_from_both_entry_points(self, case):
        make, opts, reason, detail, iterations = STOP_CASES[case]
        a, b = make()
        seq_report, par_report = SolveReport(), SolveReport()
        seq = cg_solve(a, b, report=seq_report, **opts)
        par = parallel_cg(_one_domain(a, b), report=par_report, **opts)
        for res, report, stage in ((seq, seq_report, "cg"), (par, par_report, "parallel_cg")):
            assert not res.converged and res.reason is reason
            (event,) = report.detections()
            assert (event.stage, event.reason, event.iteration) == (stage, reason, res.iterations)
            assert event.detail.startswith(detail)
        assert seq_report.detections()[0].detail == par_report.detections()[0].detail
        assert seq.iterations == par.iterations
        if iterations is not None:
            assert seq.iterations == iterations
        assert seq.iterations < opts.get("max_iter", 5000) or reason is FailureReason.MAX_ITER
        assert np.array_equal(seq.x, par.x)
        assert np.array_equal(seq.history, par.history)
        assert seq.relative_residual == par.relative_residual

    def test_x0_warm_start(self):
        """A start iterate changes the first residual, not the scale it
        is measured against (``b.b`` joins the first reduction), and a
        zero right-hand side is solved by zero whatever ``x0`` was."""
        a, b = spd(30, 3), np.random.default_rng(4).normal(size=30)
        x0 = np.random.default_rng(5).normal(size=30)
        warm = cg_solve(a, b, x0=x0, eps=1e-12)
        assert warm.converged and np.allclose(a @ warm.x, b, atol=1e-9)
        r0 = b - a @ x0
        assert warm.history[0] == np.sqrt(r0 @ r0) / np.sqrt(b @ b)
        exact = cg_solve(a, b, x0=warm.x, eps=1e-9)
        assert exact.converged and exact.iterations == 0
        assert np.array_equal(exact.x, warm.x)
        for res in (cg_solve(a, np.zeros(30), x0=x0), parallel_cg(_one_domain(a, np.zeros(30)))):
            assert res.converged and res.iterations == 0 and not res.x.any()
            assert res.relative_residual == 0.0

    def test_default_max_iter_allocates_no_buffer_of_that_size(self):
        """``max_iter`` defaults to ``10 n``: a history array sized for it
        would be ten vectors before the first iteration."""
        n = 100_000
        a = sp.diags(np.tile([1.0, 2.0, 3.0, 4.0], n // 4)).tocsr()
        b = np.ones(n)
        cg_solve(sp.eye(8).tocsr(), np.ones(8))  # imports, caches
        tracemalloc.start()
        try:
            res = cg_solve(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.converged and res.iterations <= 4
        assert peak < 10 * n * 8
