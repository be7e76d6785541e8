"""Break-even sweep of the solve team: whole ``cg_solve`` seconds with the
partner process and without it, across operator sizes.

The team (:mod:`repro.kernels.team`) forks a partner per solve, so what
it saves per iteration must pay for the fork, the start, the stop and
the reap; this sweep times whole solves, alternating the two arms, and
prints the median ratio per operator.  ``TEAM_NNZ`` is set from it.

    PYTHONPATH=src python scripts/team_break_even.py [--reps 5] [--quick]
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro import DiagonalScaling, cg_solve, sb_bic0
from repro.experiments.workloads import block_problem, swjapan_problem
from repro.kernels import team

PROBLEMS = [
    ("block", 0.6), ("block", 0.7), ("block", 0.8), ("swjapan", 1.0),
    ("block", 0.9), ("block", 1.0), ("swjapan", 1.3), ("block", 1.2), ("swjapan", 2.0),
]


def _seconds(a, b, m, floor: int) -> float:
    team.TEAM_NNZ = floor
    t0 = time.perf_counter()
    cg_solve(a, b, m, eps=1e-8, record_history=False)
    return time.perf_counter() - t0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--quick", action="store_true", help="two small operators, two reps")
    args = ap.parse_args()
    problems, reps = (PROBLEMS[:2], 2) if args.quick else (PROBLEMS, args.reps)
    if team.size() < 2:
        print("one visible CPU (or a forked process): no team forms here")
        return
    floor = team.TEAM_NNZ
    print(f"{'operator':<14} {'nnz':>9} {'family':<8} {'iters':>5} {'alone s':>9} {'team s':>9} {'ratio':>6}")
    try:
        for name, scale in problems:
            p = (block_problem if name == "block" else swjapan_problem)(scale)
            for family, m in (("sbbic0", sb_bic0(p.a, p.groups)), ("diag", DiagonalScaling(p.a))):
                iters = cg_solve(p.a, p.b, m, eps=1e-8).iterations
                alone, teamed = [], []
                for _ in range(reps):
                    alone.append(_seconds(p.a, p.b, m, np.iinfo(np.int64).max))
                    teamed.append(_seconds(p.a, p.b, m, 0))
                one, two = statistics.median(alone), statistics.median(teamed)
                print(f"{name} {scale:<8} {p.a.nnz:>9} {family:<8} {iters:>5} "
                      f"{one:>9.4f} {two:>9.4f} {one / two:>6.2f}")
    finally:
        team.TEAM_NNZ = floor


if __name__ == "__main__":
    main()
