"""Pieces the four workloads share: correctness check, seeded inputs,
kernel-level layer probes."""

from __future__ import annotations

import time
from typing import Callable, TypeVar

import numpy as np

from bench.hostref import ReferenceKernel, host_factor

TRUE_RESIDUAL_LIMIT = 1e-4
"""Loose on purpose: the solver exits on the recurrence residual, which
today leaves ~5e-6 at penalty 1e8 (ROADMAP item 1 tightens it; the gap
is tracked by ``solvers.true_relres_max``)."""

PROBE_CALLS = 200
T = TypeVar("T")


def true_relres(a, x: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(b - a @ x) / np.linalg.norm(b))


def solve_failed(converged: bool, x: np.ndarray, relres: float) -> bool:
    return (not converged) or (not np.isfinite(x).all()) or not (relres <= TRUE_RESIDUAL_LIMIT)


def seeded_load(b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The model's load with every entry rescaled by a seeded factor:
    keeps the load's support (and so the problem's character) while
    making the right-hand side a function of ``--seed``."""
    return b * (1.0 + 0.25 * rng.standard_normal(b.size))


def seeded_penalty(decade: float, rng: np.random.Generator) -> float:
    """A penalty within +-0.02 decades (5 %) of ``10**decade``: a new
    operator for every draw, but the same amount of work - Diagonal
    scaling's iteration count grows like the square root of the penalty,
    so a wider draw would make the run time a function of the seed."""
    return float(10.0 ** (decade + rng.uniform(-0.02, 0.02)))


def time_calls(fn: Callable[[], object], calls: int = PROBE_CALLS) -> float:
    """Mean seconds per call over *calls* back-to-back calls."""
    fn()
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


class HostState:
    """The host as the layer probes see it: the bandwidth roofline, the
    host factor of the set-up phase, and the reference kernel that
    brackets every probe so that its seconds are scaled to the nominal
    host the way a repetition's are."""

    def __init__(self, ref: ReferenceKernel, ref_before: float,
                 roofline: dict[str, float], setup_factor: float) -> None:
        """*roofline* was measured since the reference run *ref_before*;
        rates are divided by the host factor (nominal-host GB/s)."""
        self.ref = ref
        self.setup_factor = setup_factor
        self._last_ref = ref.run()
        factor = host_factor(ref_before, self._last_ref)
        self.triad_gbs = roofline["triad_gbs"] / factor
        self.dot_gflops = roofline["dot_gflops"] / factor

    def bracket(self, fn: Callable[[], T]) -> tuple[T, float]:
        """Run *fn* between two reference runs; returns its result and
        the host factor to scale its raw seconds by."""
        before = self._last_ref
        result = fn()
        self._last_ref = self.ref.run()
        return result, host_factor(before, self._last_ref)

    def per_call(self, fn: Callable[[], object]) -> float:
        """Nominal-host seconds per call of *fn*."""
        raw, factor = self.bracket(lambda: time_calls(fn))
        return raw * factor


def kernel_probes(a, m, host: HostState, rhs_block: int = 8) -> dict[str, float]:
    """Per-call cost of the solver's inner kernels on the workload's own
    operands, in nominal-host seconds.  Byte counts are *computed* from
    array sizes (they ignore cache misses); the GB/s they give are set
    against the triad bandwidth measured in the same run."""
    from repro import kernels

    n = a.shape[0]
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    out = np.empty(n)
    backend = kernels.get_backend()
    matvec_s = host.per_call(lambda: backend.csr_matvec(a, v))
    matvec_gbs = (a.nnz * 12 + (n + 1) * 4 + 2 * n * 8) / matvec_s / 1e9
    metrics = {
        "sparse.matvec_s_per_call": matvec_s,
        "sparse.matvec_gbs": matvec_gbs,
        "sparse.matvec_roofline_frac": matvec_gbs / host.triad_gbs,
    }
    if hasattr(m, "apply_block"):
        block = rng.standard_normal((n, rhs_block))
        block_out = np.empty_like(block)
        apply_s = host.per_call(lambda: m.apply(v, out=out))
        # forward and backward sweeps each stream the factor once
        apply_gbs = (2 * m.memory_bytes() + 6 * n * 8) / apply_s / 1e9
        metrics.update({
            "precond.apply_s_per_call": apply_s,
            "precond.apply_block8_s_per_call": host.per_call(
                lambda: m.apply_block(block, out=block_out)
            ),
            "precond.factor_nnz": float(m.factor_csr().nnz),
            "precond.memory_bytes": float(m.memory_bytes()),
            "kernels.substitution_gbs": apply_gbs,
            "kernels.substitution_roofline_frac": apply_gbs / host.triad_gbs,
        })
    return metrics


def solver_shares(solve_s: float, iterations: float, apply_s: float,
                  matvec_s: float) -> dict[str, float]:
    """Per-iteration cost, and the share of the solve that is neither
    substitution nor matvec (BLAS-1 plus the Python loop)."""
    if not solve_s or not iterations:
        return {}
    return {
        "solvers.s_per_iter": solve_s / iterations,
        "solvers.cg_other_frac": 1.0 - iterations * (apply_s + matvec_s) / solve_s,
    }
