"""Microbenchmarks of the solver's hot kernels (pytest-benchmark proper).

Unlike the experiment benchmarks (full solver campaigns, run once),
these measure the repeated inner kernels with real statistics: the BSR
matvec, the color-wise batched preconditioner application, the
factorization set-up, and the full CG solve.

The sparse products are direct calls of scipy's compiled kernels
(:mod:`repro.kernels`); every first call (the BSR handle, the
reference oracle's bucket gathers) is made outside the timer.
"""

import numpy as np
import pytest

from repro import kernels
from repro.fem.generators import simple_block_model
from repro.fem.model import build_contact_problem
from repro.precond import bic, sb_bic0
from repro.solvers.cg import cg_solve
from tests.ic_oracle import bucketed


@pytest.fixture(scope="module")
def problem():
    return build_contact_problem(simple_block_model(6, 6, 4, 6, 6), penalty=1e6)


@pytest.fixture(scope="module")
def sb_precond(problem):
    return sb_bic0(problem.a, problem.groups)


def test_bench_bsr_matvec(benchmark, problem):
    x = np.random.default_rng(0).normal(size=problem.ndof)
    problem.a_bcsr.matvec(x)  # exclude the BSR-cache first call
    benchmark(problem.a_bcsr.matvec, x)


def test_bench_csr_matvec(benchmark, problem):
    a_csr = problem.a.tocsr()
    x = np.random.default_rng(0).normal(size=problem.ndof)
    benchmark(kernels.csr_matvec, a_csr, x)


def test_bench_sbbic_apply(benchmark, problem, sb_precond):
    r = np.random.default_rng(1).normal(size=problem.ndof)
    benchmark(sb_precond.apply, r)


def test_bench_sbbic_reference_apply(benchmark, problem, sb_precond):
    """The pre-compilation bucketed path, kept as the speedup baseline."""
    r = np.random.default_rng(1).normal(size=problem.ndof)
    benchmark(bucketed(sb_precond), r)  # the buckets are gathered once, untimed


def test_bench_bic0_apply(benchmark, problem):
    m = bic(problem.a, fill_level=0)
    r = np.random.default_rng(2).normal(size=problem.ndof)
    benchmark(m.apply, r)


def test_bench_sbbic_setup(benchmark, problem):
    benchmark.pedantic(
        lambda: sb_bic0(problem.a, problem.groups), rounds=3, iterations=1
    )


def test_bench_sbbic_refactor(benchmark, problem, sb_precond):
    """Numeric-only re-factorization on the cached symbolic pattern."""
    benchmark.pedantic(
        lambda: sb_precond.refactor(problem.a), rounds=5, iterations=1
    )


def test_refactor_speedup_vs_cold_setup(problem):
    """refactor must stay >= 2x faster than a cold SB-BIC(0) setup.

    The acceptance floor of the symbolic/numeric split: a numeric-only
    re-setup skips ordering, fill-pattern enumeration, scheduling and
    operator-structure compilation, so it must beat the cold path by a
    wide margin on the standard bench model.
    """
    import time

    cold = float("inf")
    m = None
    for _ in range(3):
        t0 = time.perf_counter()
        m = sb_bic0(problem.a, problem.groups)
        cold = min(cold, time.perf_counter() - t0)
    warm = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        m.refactor(problem.a)
        warm = min(warm, time.perf_counter() - t0)
    assert cold / warm >= 2.0, (
        f"refactor {warm * 1e3:.2f} ms vs cold setup {cold * 1e3:.2f} ms "
        f"= {cold / warm:.2f}x, below the 2x floor"
    )


def test_bench_bic1_setup(benchmark, problem):
    benchmark.pedantic(
        lambda: bic(problem.a, fill_level=1), rounds=2, iterations=1
    )


def test_bench_full_sbbic_solve(benchmark, problem, sb_precond):
    result = benchmark.pedantic(
        lambda: cg_solve(problem.a, problem.b, sb_precond),
        rounds=2,
        iterations=1,
    )
    assert result.converged
