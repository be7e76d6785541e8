#!/usr/bin/env python3
"""A/A check: does the benchmark agree with itself on this host?

Runs two interleaved sets (A, B, A, B, ...) of ``--runs`` runs of the
current tree on every workload, each run with another seed, and prints
per workload x end-to-end metric: both medians, both quartile spreads
(IQR / median) and the relative gap between the medians against the
metric's bound in ``BENCHMARK.json``.  For the time metrics it prints the
same for the raw (not host-normalised) seconds, to show what the
normalisation buys.  Exits non-zero if a gap, or a spread other than
that of ``setup_s``, exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# no script-directory entry on the path (bench/trace.py would shadow the
# standard library's trace module)
sys.path[0:1] = [str(ROOT)]
from bench.harness import iqr_over_median as spread  # noqa: E402

RAW_OF = {"time_to_solution_s": "raw.time_to_solution_s", "setup_s": "raw.setup_s"}


def one_run(workload: str, seed: int, seconds: float) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:  # the raw.* lines ride in the human-readable part
        parts = line.split()
        if parts and parts[0] in RAW_OF.values():
            values[parts[0]] = float(parts[1])
    return values


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="runs per set (>= 5)")
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    args = p.parse_args(argv)
    if args.runs < 5:
        p.error("--runs must be at least 5")

    status = 0
    print(f"{'workload':18s} {'metric':26s} {'median A':>11s} {'median B':>11s} "
          f"{'gap':>7s} {'iqr A':>7s} {'iqr B':>7s} {'bound':>6s}  verdict")
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        sets: tuple[list[dict], list[dict]] = ([], [])
        for i in range(args.runs):
            for k in (0, 1):
                sets[k].append(one_run(workload, 1000 * k + i, args.seconds))
        for metric in spec["end_to_end"]:
            rows = [(metric["name"], metric["bound"])]
            if metric["name"] in RAW_OF:
                rows.append((RAW_OF[metric["name"]], None))
            for name, bound in rows:
                a = [run[name] for run in sets[0]]
                b = [run[name] for run in sets[1]]
                med_a, med_b = statistics.median(a), statistics.median(b)
                gap = abs(med_b - med_a) / med_a
                verdict = ""
                if bound is not None:
                    spreads_ok = name == "setup_s" or max(spread(a), spread(b)) <= bound
                    verdict = "ok" if gap <= bound and spreads_ok else "FAIL"
                    status |= verdict == "FAIL"
                print(f"{workload:18s} {name:26s} {med_a:11.5g} {med_b:11.5g} "
                      f"{gap:7.2%} {spread(a):7.2%} {spread(b):7.2%} "
                      f"{'' if bound is None else format(bound, '.0%'):>6s}  {verdict}",
                      flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
