"""CPU of the rank workers per distributed solve, beside the driver's.

The benchmark's ``cpu_s`` counts the driver process and its *reaped*
children.  Rank workers that are parked for the next system between
repetitions are never reaped inside one, so on ``dist_process_2dom``
that figure covers the driver alone.  This script repeats the
workload's repetition — block model, two contact-aware domains,
localized SB-BIC(0), ``parallel_cg`` on the process transport, close —
in two arms, interleaved:

- ``warm``: the system takes the parked workers; the ranks' CPU is what
  their set-up and solve commands report (``ProcessTransport.rank_cpu_s``);
- ``fresh``: the pool is emptied before the system and after it, so the
  workers are forked for it and reaped with it, as every system's were
  before the pool; the ranks' CPU is the reaped children's, fork, start
  and exit included (and the commands' share of it is printed too).

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
from repro.precond.localized import restrict_groups

ARMS = ("warm", "fresh")


def _times() -> tuple[float, float]:
    """CPU seconds of this process and of its reaped children."""
    t = os.times()
    return t.user + t.system, t.children_user + t.children_system


def repetition(p, factory, arm: str) -> dict:
    """One repetition of *arm*: driver and rank CPU seconds."""
    if arm == "fresh":
        shutdown()
    own0, reaped0 = _times()
    part = contact_aware_partition(p.mesh.coords, p.groups, 2)
    with DistributedSystem.from_global(
        p.a, p.b, part, factory, transport="process"
    ) as system:
        res = parallel_cg(system, eps=1e-8)
        commands = sum(system.comm.rank_cpu_s)
    if arm == "fresh":
        shutdown()  # reaped: the children's CPU lands in os.times()
    own1, reaped1 = _times()
    ranks = reaped1 - reaped0 if arm == "fresh" else commands
    return {
        "driver_s": own1 - own0, "ranks_s": ranks,
        "commands_s": commands, "iterations": res.iterations,
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
    print(f"block {scale}, {p.ndof} DOF, 2 ranks, SB-BIC(0), medians of {reps}")
    print(f"{'arm':<6} {'driver cpu s':>13} {'ranks cpu s':>12} "
          f"{'of which commands':>18} {'iters':>6}")
    for arm, rows in runs.items():
        med = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        print(f"{arm:<6} {med['driver_s']:>13.3f} {med['ranks_s']:>12.3f} "
              f"{med['commands_s']:>18.3f} {med['iterations']:>6.0f}")


if __name__ == "__main__":
    main()
