"""Measured strong scaling of ``parallel_cg``: serial, lockstep, process.

The wall-clock half of the strong-scaling study whose deterministic half
(iterations, message census) runs in tier-1
(``tests/test_transport.py::TestParity::test_strong_scaling_census``).
For 1 and 2 ranks (4 when the affinity mask has that many CPUs) the
block model of the ``dist_process_2dom`` benchmark workload is solved
with localized SB-BIC(0) on the lockstep emulation and on rank worker
processes, next to the one-process ``cg_solve``; set-up time, solve time
and iterations are printed per rank count, the shape Franceschini et al.
2021 report strong scaling in (PAPERS.md).  Timed as best-of-N so
scheduler noise does not flake the gate.

Gate: with two or more CPUs, two rank processes solve at least 1.3x
faster than the lockstep emulation of the same two ranks.  On one CPU
the numbers are only reported.
"""

import os
import time

from repro import DistributedSystem, cg_solve, contact_aware_partition, parallel_cg, sb_bic0
from repro.experiments.workloads import block_problem
from repro.precond.localized import restrict_groups

REPEATS = 3
MIN_SPEEDUP = 1.3


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _best(problem, ranks, transport):
    """(set-up s, best solve s, iterations) of *ranks* ranks on *transport*."""
    groups, n_nodes = problem.groups, problem.mesh.n_nodes
    part = contact_aware_partition(problem.mesh.coords, groups, ranks)
    t0 = time.perf_counter()
    system = DistributedSystem.from_global(
        problem.a,
        problem.b,
        part,
        lambda sub, nodes: sb_bic0(sub, restrict_groups(groups, nodes, n_nodes)),
        transport=transport,
    )
    setup = time.perf_counter() - t0
    with system:
        results = [parallel_cg(system, eps=1e-8) for _ in range(REPEATS)]
    assert all(r.converged for r in results)
    assert len({r.iterations for r in results}) == 1
    return setup, min(r.solve_seconds for r in results), results[0].iterations


def test_bench_transport_strong_scaling():
    problem = block_problem(1.5, 1e6)
    cpus = _cpus()
    t0 = time.perf_counter()
    m = sb_bic0(problem.a, problem.groups)
    serial_setup = time.perf_counter() - t0
    serial = min(
        (cg_solve(problem.a, problem.b, m, eps=1e-8) for _ in range(REPEATS)),
        key=lambda r: r.solve_seconds,
    )
    assert serial.converged
    print(f"\nstrong scaling, block model, {problem.ndof} DOF, {cpus} CPU(s)")
    print(f"{'ranks':>5} {'solver':>9} {'set-up s':>9} {'solve s':>8} {'iters':>6} {'vs serial':>10}")
    print(
        f"{1:>5} {'cg_solve':>9} {serial_setup:>9.3f} {serial.solve_seconds:>8.3f} "
        f"{serial.iterations:>6} {1.0:>10.2f}"
    )
    solve = {}
    for ranks in (1, 2, 4) if cpus >= 4 else (1, 2):
        for transport in ("lockstep", "process"):
            setup, best, iters = _best(problem, ranks, transport)
            solve[ranks, transport] = best
            print(
                f"{ranks:>5} {transport:>9} {setup:>9.3f} {best:>8.3f} {iters:>6} "
                f"{serial.solve_seconds / best:>10.2f}"
            )
    speedup = solve[2, "lockstep"] / solve[2, "process"]
    print(f"2 rank processes vs 2 lockstep ranks: {speedup:.2f}x")
    if cpus >= 2:
        assert speedup >= MIN_SPEEDUP, (
            f"two rank processes are only {speedup:.2f}x the lockstep "
            f"emulation (gate {MIN_SPEEDUP}x on {cpus} CPUs)"
        )
