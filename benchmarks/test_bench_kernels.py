"""Microbenchmarks of the solver's hot kernels (pytest-benchmark proper).

Unlike the experiment benchmarks (full solver campaigns, run once),
these measure the repeated inner kernels with real statistics: the BSR
matvec, the color-wise batched preconditioner application, the
factorization set-up, and the full CG solve.

Kernels dispatch through :mod:`repro.kernels`, so the ``warmed`` fixture
pays JIT compilation (and lazy structure builds) once per module *before*
any timed round — first-call compile time must never skew a statistic.
The per-backend benches and the numba speedup gate skip cleanly when
numba is not importable.
"""

import numpy as np
import pytest

from repro import kernels
from repro.fem.generators import simple_block_model
from repro.fem.model import build_contact_problem
from repro.precond import bic, sb_bic0
from repro.solvers.cg import cg_solve

HAVE_NUMBA = "numba" in kernels.available_backends()


@pytest.fixture(scope="module")
def problem():
    return build_contact_problem(simple_block_model(6, 6, 4, 6, 6), penalty=1e6)


@pytest.fixture(scope="module")
def sb_precond(problem, warmed):
    return sb_bic0(problem.a, problem.groups).warmup()


@pytest.fixture(scope="module")
def warmed():
    """JIT-compile the active backend's kernels before anything is timed."""
    kernels.warmup()


@pytest.fixture()
def use_backend(problem, sb_precond):
    """Pin a backend for one bench, warmed, restoring auto afterwards.

    A factor sweeps on the backend its last ``refactor`` resolved, so the
    shared ``sb_precond`` is re-factored after every switch — otherwise
    both labels would time the same kernels.
    """

    def pin(name: str) -> None:
        kernels.set_backend(name)
        kernels.warmup()
        sb_precond.refactor(problem.a)
        assert sb_precond.kernel_backend == name

    yield pin
    kernels.set_backend(None)
    sb_precond.refactor(problem.a)


def test_bench_bsr_matvec(benchmark, problem, warmed):
    x = np.random.default_rng(0).normal(size=problem.ndof)
    problem.a_bcsr.matvec(x)  # exclude the BSR-cache / JIT first call
    benchmark(problem.a_bcsr.matvec, x)


def test_bench_csr_matvec(benchmark, problem, warmed):
    a_csr = problem.a.tocsr()
    x = np.random.default_rng(0).normal(size=problem.ndof)
    backend = kernels.get_backend()
    benchmark(backend.csr_matvec, a_csr, x)


def test_bench_sbbic_apply(benchmark, problem, sb_precond):
    r = np.random.default_rng(1).normal(size=problem.ndof)
    benchmark(sb_precond.apply, r)


@pytest.mark.parametrize(
    "backend_name",
    [
        "numpy",
        pytest.param(
            "numba",
            marks=pytest.mark.skipif(not HAVE_NUMBA, reason="numba not importable"),
        ),
    ],
)
def test_bench_sbbic_apply_backend(benchmark, problem, sb_precond, use_backend, backend_name):
    """Same apply, pinned per backend — the cross-backend comparison rows."""
    use_backend(backend_name)
    r = np.random.default_rng(1).normal(size=problem.ndof)
    sb_precond.apply(r)  # first dispatch on this backend, outside the timer
    benchmark(sb_precond.apply, r)


def test_bench_sbbic_reference_apply(benchmark, problem, sb_precond):
    """The pre-compilation bucketed path, kept as the speedup baseline."""
    r = np.random.default_rng(1).normal(size=problem.ndof)
    sb_precond.reference_apply(r)  # build the lazy bucket structures
    benchmark(sb_precond.reference_apply, r)


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


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not importable")
def test_numba_apply_speedup_vs_numpy(problem, sb_precond, use_backend):
    """numba ``sbbic_apply`` must stay >= 3x faster than numpy.

    The acceptance floor of the JIT kernel layer (ISSUE 6): a warmed
    ``@njit(parallel=True)`` sweep over independent color groups against
    the compiled-CSR numpy path, best-of timing on the standard bench
    model.  The floor presumes real parallelism, so the gate softens to
    1x (parity, never a slowdown) on boxes with < 4 cores.
    """
    import os
    import time

    r = np.random.default_rng(1).normal(size=problem.ndof)

    def best_of(fn, reps=50):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn(r)
            best = min(best, time.perf_counter() - t0)
        return best

    use_backend("numpy")
    numpy_s = best_of(sb_precond.apply)
    use_backend("numba")
    sb_precond.apply(r)  # first dispatch on this backend, outside the timer
    numba_s = best_of(sb_precond.apply)

    floor = 3.0 if (os.cpu_count() or 1) >= 4 else 1.0
    speedup = numpy_s / numba_s
    assert speedup >= floor, (
        f"numba apply {numba_s * 1e3:.3f} ms vs numpy {numpy_s * 1e3:.3f} ms "
        f"= {speedup:.2f}x, below the {floor}x floor"
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
