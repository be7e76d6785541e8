"""Acceptance gates for the solver service (multi-RHS block CG + caching).

The throughput story of ``repro.serve``: 8 right-hand sides sharing one
SB-BIC(0) operator must solve **at least 2x faster** through one block-CG
call than through a loop of single-RHS CG solves, while matching the
per-column answers to ``1e-10`` relative error; a warm repeat request
through :class:`~repro.serve.SolverSession` must skip every setup phase
and answer **at least 3x faster** than the cold first request; and 4
independent fingerprint groups through a 4-worker
:class:`~repro.serve.WorkerPool` must run **at least 2x faster** than the
serial batch path on a machine with >= 4 cores (below that the forked
workers share the cores, so the gate drops to a 0.75x overhead floor)
while staying bit-identical to the serial answers.

Penalty is 1e4 here, not the paper's 1e6: the parity gate compares two
*different* Krylov iterations at ``eps = 1e-13``, and the spread of the
penalty-row eigenvalues sets how far the two converged answers may
drift apart (1e6 lands near 2e-10 — above the gate; 1e4 near 2.5e-12).

These floors are gates only; the numbers themselves are tracked by
``bench/run.py --workload serve_mixed --trace 1`` (``serve.hit_latency_s``
/ ``serve.miss_latency_s``, ``solvers.block_cg_s_per_rhs``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.experiments.workloads import block_structure
from repro.precond import sb_bic0
from repro.serve import SolveRequest, SolverSession, WorkerPool
from repro.solvers.block_cg import block_cg_solve
from repro.solvers.cg import cg_solve

SCALE = 1.0
PENALTY = 1.0e4
N_RHS = 8
EPS = 1e-13
POOL_PRECONDS = ("sbbic0", "bic0", "bic1", "ic0")


def best_of(fn, *, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def operator():
    """One structure, one materialized A(penalty), one SB-BIC(0) factor."""
    s = block_structure(SCALE)
    a = s.system(PENALTY)
    m = sb_bic0(a, s.groups)
    return s, a, m


@pytest.fixture(scope="module")
def rhs_block(operator):
    s, _, _ = operator
    return np.random.default_rng(2003).standard_normal((s.ndof, N_RHS))


@pytest.fixture(scope="module")
def sequential_solves(operator, rhs_block):
    _, a, m = operator
    return [
        cg_solve(a, rhs_block[:, j], m, eps=EPS, record_history=False)
        for j in range(N_RHS)
    ]


def test_block_cg_matches_sequential_cg(operator, rhs_block, sequential_solves):
    """Per-column parity <= 1e-10 relative — the coalescing correctness gate."""
    _, a, m = operator
    res = block_cg_solve(a, rhs_block, m, eps=EPS, record_history=False)
    assert all(res.converged_columns)
    assert all(r.converged for r in sequential_solves)
    rel_errs = [
        float(np.linalg.norm(res.x[:, j] - sequential_solves[j].x)
              / np.linalg.norm(sequential_solves[j].x))
        for j in range(N_RHS)
    ]
    assert max(rel_errs) <= 1e-10, (
        f"block-CG drifted from per-column CG: max rel err {max(rel_errs):.2e}"
    )


def test_block_cg_throughput_vs_sequential(operator, rhs_block):
    """8 coalesced RHS must beat 8 sequential solves by >= 2x wall time."""
    _, a, m = operator

    def sequential():
        for j in range(N_RHS):
            cg_solve(a, rhs_block[:, j], m, eps=EPS, record_history=False)

    def blocked():
        block_cg_solve(a, rhs_block, m, eps=EPS, record_history=False)

    sequential()  # warm both paths outside the timers
    blocked()
    seq_s = best_of(sequential, reps=3)
    blk_s = best_of(blocked, reps=3)
    assert seq_s / blk_s >= 2.0, (
        f"block CG {blk_s * 1e3:.0f} ms vs sequential {seq_s * 1e3:.0f} ms "
        f"= {seq_s / blk_s:.2f}x, below the 2x floor"
    )


def test_bench_block_cg_solve(benchmark, operator, rhs_block):
    """pytest-benchmark statistics for the blocked solve itself."""
    _, a, m = operator
    benchmark.pedantic(
        lambda: block_cg_solve(a, rhs_block, m, eps=EPS, record_history=False),
        rounds=3, iterations=1,
    )


def test_warm_request_skips_setup_and_beats_cold_3x():
    """SolverSession: warm repeat = 0 setup phases and >= 3x lower latency."""
    req = SolveRequest(job_id="gate", model="block", scale=SCALE,
                       penalty=PENALTY, precond="sbbic0", rhs="model")
    cold_s = float("inf")
    session = None
    for _ in range(2):
        session = SolverSession()
        t0 = time.perf_counter()
        resp = session.solve(req)
        cold_s = min(cold_s, time.perf_counter() - t0)
        assert resp.ok and resp.converged
    warm_s = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        resp = session.solve(req)
        warm_s = min(warm_s, time.perf_counter() - t0)
        assert resp.cache == {"structure": "hit", "factor": "hit"}
        assert resp.setups["symbolic"] == 0 and resp.setups["numeric"] == 0
    assert cold_s / warm_s >= 3.0, (
        f"warm {warm_s * 1e3:.0f} ms vs cold {cold_s * 1e3:.0f} ms "
        f"= {cold_s / warm_s:.2f}x, below the 3x floor"
    )


def test_pooled_groups_throughput_and_identity():
    """4 independent factor groups through WorkerPool(4) vs serial.

    Distinct preconds give distinct factor fingerprints, so the pool's
    forked workers can solve all four groups at once.  Gate: >= 2x on
    >= 4 cores; with fewer cores than groups the children share the
    CPUs, so the gate becomes a 0.75x floor on fork/pipe/merge overhead.
    Bit-identity to the serial path is gated unconditionally; the
    measured ratio is printed (``pytest -s``).
    """
    def batch():
        return [
            SolveRequest(job_id=f"pool-{p}", model="block", scale=SCALE,
                         penalty=PENALTY, precond=p, rhs="model", eps=EPS)
            for p in POOL_PRECONDS
        ]

    session = SolverSession()
    serial_ref = session.solve_batch(batch())  # warm every factor group
    assert all(r.ok and r.converged for r in serial_ref)

    pool = WorkerPool(session, workers=len(POOL_PRECONDS))
    try:
        pooled_ref = pool.solve_batch(batch())
        for ser, par in zip(serial_ref, pooled_ref):
            assert par.ok and par.converged
            assert ser.x_sha256 == par.x_sha256, (
                f"pooled answer diverged from serial for {ser.job_id}"
            )
        serial_s = best_of(lambda: session.solve_batch(batch()), reps=3)
        pooled_s = best_of(lambda: pool.solve_batch(batch()), reps=3)
    finally:
        pool.close()

    cores = os.cpu_count() or 1
    floor = 2.0 if cores >= 4 else 0.75
    print(f"\npooled {pooled_s * 1e3:.0f} ms vs serial {serial_s * 1e3:.0f} ms "
          f"= {serial_s / pooled_s:.2f}x ({cores} cores)")
    assert serial_s / pooled_s >= floor, (
        f"pooled {pooled_s * 1e3:.0f} ms vs serial {serial_s * 1e3:.0f} ms "
        f"= {serial_s / pooled_s:.2f}x, below the {floor:g}x floor "
        f"({cores} cores)"
    )
