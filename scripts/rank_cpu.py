"""CPU of the rank workers per distributed solve, beside the driver's.

The benchmark's ``cpu_s`` counts the driver process and its *reaped*
children.  Rank workers that are parked for the next system between
repetitions are never reaped inside one, so on ``dist_process_2dom``
that figure covers the driver alone.  This script repeats the
workload's repetition — block model, two contact-aware domains,
localized SB-BIC(0), ``parallel_cg`` on the process transport, close —
in two arms, interleaved:

- ``warm``: the system takes the parked workers, whose ranks refactor
  the factors they kept; the ranks' CPU is what their set-up and solve
  commands report (``ProcessTransport.rank_cpu_s``);
- ``fresh``: the warm arm's set waits outside the pool while the
  workers are forked for the system and reaped with it, as every
  system's were before the pool; the ranks' CPU is the reaped
  children's, fork, start and exit included (and the commands' share of
  it is printed too).

Per arm it also prints the ranks' set-up seconds (what their handles
report: a refactor on a warm set), the symbolic / numeric set-ups each
rank's factor has run by the last repetition (warm: 1 and one more per
system; fresh: 1 and 1) and a rank worker's resident set after the
solve and once parked (``VmRSS``; NaN where ``/proc`` has none).

The arms share one driver, whose heap a fresh arm's fork leaves
copy-on-write for the next repetition, so their driver CPU is printed,
not their wall time.

    PYTHONPATH=src python scripts/rank_cpu.py [--reps 8] [--quick]
"""

from __future__ import annotations

import argparse
import os
import statistics

from repro import DistributedSystem, contact_aware_partition, parallel_cg, sb_bic0
from repro.experiments.workloads import block_problem
from repro.parallel.transport import shutdown
from repro.parallel.transport.process_backend import _park, _unpark
from repro.precond.localized import restrict_groups

ARMS = ("warm", "fresh")


def _times() -> tuple[float, float]:
    """CPU seconds of this process and of its reaped children."""
    t = os.times()
    return t.user + t.system, t.children_user + t.children_system


def _rss_mib(pids) -> float:
    """Mean resident set of the processes *pids*, MiB."""
    values = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                values += [int(line.split()[1]) / 1024 for line in fh if line.startswith("VmRSS:")]
        except OSError:
            pass
    return statistics.mean(values) if values else float("nan")


def repetition(p, factory, arm: str) -> dict:
    """One repetition of *arm*: driver and rank CPU seconds, the ranks'
    set-up, and a rank worker's resident set."""
    aside = _unpark() if arm == "fresh" else None  # the warm arm's set
    own0, reaped0 = _times()
    part = contact_aware_partition(p.mesh.coords, p.groups, 2)
    with DistributedSystem.from_global(
        p.a, p.b, part, factory, transport="process"
    ) as system:
        res = parallel_cg(system, eps=1e-8)
        commands = sum(system.comm.rank_cpu_s)
        pids = system.comm.pids
        rss_solve = _rss_mib(pids)
    rss_parked = _rss_mib(pids)
    if arm == "fresh":
        shutdown()  # reaped: the children's CPU lands in os.times()
        if aside is not None:
            _park(aside)
    own1, reaped1 = _times()
    ranks = reaped1 - reaped0 if arm == "fresh" else commands
    stats = [h.factorization_stats() for h in system.preconds]
    return {
        "driver_s": own1 - own0, "ranks_s": ranks,
        "commands_s": commands, "iterations": res.iterations,
        "setup_s": res.setup_seconds,
        "symbolic": max(s["symbolic_setups"] for s in stats),
        "numeric": max(s["numeric_setups"] for s in stats),
        "rss_solve": rss_solve, "rss_parked": rss_parked,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=8)
    ap.add_argument("--quick", action="store_true", help="block 1.0, three reps per arm")
    args = ap.parse_args()
    scale, reps = (1.0, 3) if args.quick else (1.5, args.reps)
    p = block_problem(scale, 1e6)
    groups, n_nodes = p.groups, p.mesh.n_nodes

    def factory(sub, nodes):
        return sb_bic0(sub, restrict_groups(groups, nodes, n_nodes))

    for arm in ARMS:  # warm-up: imports, caches, one parked set
        repetition(p, factory, arm)
    runs = {arm: [] for arm in ARMS}
    try:
        for _ in range(reps):
            for arm in ARMS:
                runs[arm].append(repetition(p, factory, arm))
    finally:
        shutdown()
    print(f"block {scale}, {p.ndof} DOF, 2 ranks, SB-BIC(0), medians of {reps}; "
          "set-ups: the last repetition's")
    print(f"{'arm':<6} {'driver cpu s':>13} {'ranks cpu s':>12} "
          f"{'of which commands':>18} {'ranks set-up s':>15} {'set-ups sym/num':>16} "
          f"{'rank RSS MiB solve/parked':>26} {'iters':>6}")
    for arm, rows in runs.items():
        med = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        last = f"{rows[-1]['symbolic']}/{rows[-1]['numeric']}"
        rss = f"{med['rss_solve']:.1f}/{med['rss_parked']:.1f}"
        print(f"{arm:<6} {med['driver_s']:>13.3f} {med['ranks_s']:>12.3f} "
              f"{med['commands_s']:>18.3f} {med['setup_s']:>15.3f} {last:>16} "
              f"{rss:>26} {med['iterations']:>6.0f}")


if __name__ == "__main__":
    main()
