#!/usr/bin/env python3
"""One command for the benchmark: ``python3 bench/run.py --workload W --seed N``.

Prints every metric by name with its unit, verifies every answer, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` declares.  Exits non-zero when an
answer is wrong or the program is not there to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINNED_ENV = "REPRO_BENCH_PINNED"
PINS = {
    # BLAS/OpenMP spin threads double the CPU time and jitter the wall time
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # keep freed arrays in the heap: glibc otherwise returns them to the
    # OS and the next repetition pays thousands of page faults for them
    "MALLOC_TRIM_THRESHOLD_": "4294967296",
    "MALLOC_TOP_PAD_": "268435456",
    "PYTHONHASHSEED": "0",
}


def disable_aslr() -> None:
    """Turn address-space randomisation off for the process image that
    follows (the personality survives ``execve``).  With it on, the same
    seed gives a peak RSS of 294 or 305 or 330 MB depending on where the
    mappings land; with it off the figure repeats to 0.01 MB.  Best
    effort: where the call is not allowed the run goes on randomised."""
    import ctypes

    ADDR_NO_RANDOMIZE = 0x0040000
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def parse_args(argv: list[str]) -> argparse.Namespace:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced then traced, one process each")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    p.add_argument("--quick", action="store_true",
                   help="smoke mode: small models, one repetition, no warm-up")
    args = p.parse_args(argv)
    if args.all == bool(args.workload):
        p.error("give exactly one of --workload and --all")
    args.spec = spec
    return args


def run_all(args: argparse.Namespace) -> int:
    status = 0
    for workload in (w["name"] for w in args.spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.quick:
                cmd.append("--quick")
            print(f"==== {workload} --trace {trace}", flush=True)
            status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def environment_stamp(args: argparse.Namespace) -> dict:
    import hashlib

    import numpy
    import scipy
    from repro import kernels

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f'{blas.get("name")} {blas.get("version")}'
    except (KeyError, TypeError):
        blas = "unknown"
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree.update(str(path.relative_to(ROOT)).encode())
        tree.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "pins": {k: os.environ.get(k) for k in PINS},
        "kernels": kernels.describe(),
        "src_tree_sha256": tree.hexdigest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
    }


def run_workload(args: argparse.Namespace, started: float) -> int:
    # no script-directory entry on the path: bench/trace.py must not
    # shadow the standard library's trace module
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    from bench import harness, hostref
    from bench.trace import Tracer
    from bench.workloads import WORKLOADS
    from bench.workloads.base import SpanView
    from bench.workloads.common import HostState

    tracing = bool(args.trace)
    harness_overhead = -time.perf_counter()
    ref = hostref.ReferenceKernel()
    ref.run()  # first call pays the page faults of its own buffers
    ref_setup_before = ref.run()
    harness_overhead += time.perf_counter()

    tracer = Tracer()
    workload = WORKLOADS[args.workload](args.seed, args.quick, tracer)
    if args.quick:
        workload.warmups, workload.min_reps = 0, 1
    try:
        workload.setup()
        if tracing:
            workload.instrument()
        for i in range(workload.warmups):
            workload.verify(workload.repetition(i - workload.warmups))
        setup_raw = time.perf_counter() - started - harness_overhead
        ref_setup_after = ref.run()
        setup_factor = hostref.host_factor(ref_setup_before, ref_setup_after)

        reps = harness.run_repetitions(
            workload, ref, ref_setup_after,
            0.0 if args.quick else args.seconds, tracer if tracing else None,
        )
        kept, discarded = harness.keep_valid(reps, workload.min_reps)
        plain = [r for r in kept if not r.traced] or kept
        layer: dict[str, float] = {}
        if tracing:
            ref_before = ref.run()
            host = HostState(ref, ref_before, hostref.measure_roofline(), setup_factor)
            spans = SpanView(kept, tracer)
            layer = workload.layer_metrics(spans, host)
    finally:
        tracer.restore()
        workload.close()

    attempted = sum(r.outcome["attempted"] for r in reps)
    failed = sum(r.outcome["failed"] for r in reps)
    wall = sum(r.raw_s for r in reps)
    cpu = sum(r.cpu_raw_s for r in reps)
    values = {
        "time_to_solution_s": statistics.median(r.norm_s for r in plain),
        "setup_s": setup_raw * setup_factor,
        "cpu_s": statistics.median(r.cpu_norm_s for r in plain),
        "iterations_total": float(reps[0].outcome["iterations"]),
        "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
        "solvers.true_relres_max": max(r.outcome["true_relres"] for r in reps),
        "solvers.residual_gap_max": max(r.outcome["residual_gap"] for r in reps),
        "host.ref_s": statistics.median(
            [ref_setup_before] + [r.ref_after for r in reps]),
        "host.factor": statistics.median(r.factor for r in kept),
        "host.nproc": float(os.cpu_count() or 1),
        "host.reps_valid": float(len(kept)),
        "host.reps_discarded": float(discarded),
        "host.rep_spread": harness.iqr_over_median([r.norm_s for r in plain]),
        "host.sys_cpu_frac": sum(r.sys_raw_s for r in reps) / cpu if cpu else 0.0,
        "host.offcpu_frac": 1.0 - cpu / wall if wall else 0.0,
        "raw.time_to_solution_s": statistics.median(r.raw_s for r in plain),
        "raw.setup_s": setup_raw,
    }
    if tracing:
        values.update(layer)
        values.update({
            "host.triad_gbs": host.triad_gbs,
            "host.dot_gflops": host.dot_gflops,
            "bench.trace_overhead_frac": (
                statistics.median(r.norm_s for r in spans.traced)
                / values["time_to_solution_s"] - 1.0
            ),
            "bench.span_coverage_frac": spans.coverage(),
        })
        tracer.write_jsonl(BENCH_DIR / "out" / f"trace_{args.workload}.jsonl")

    declared = args.spec["per_layer" if tracing else "end_to_end"]
    units = {m["name"]: m["unit"] for m in args.spec["end_to_end"] + args.spec["per_layer"]}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(kept)} valid / {discarded} discarded "
          f"({sum(r.traced for r in kept)} traced)")
    for r in reps:
        print(f"rep.{r.index} raw_s {r.raw_s:.4f} nominal_s {r.norm_s:.4f} "
              f"ref_before_s {r.ref_before:.4f} ref_after_s {r.ref_after:.4f} "
              f"peak_rss_mb {r.rss_mb:.1f} "
              f"{'valid' if r.valid else 'invalid'}{' traced' if r.traced else ''}")
    for key, value in environment_stamp(args).items():
        print(f"env.{key} {json.dumps(value)}")
    for name in sorted(values):
        print(f"{name} {values[name]:.6g} {units.get(name, '')}".rstrip())
    # a layer the workload does not exercise did no work: 0
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    correct = failed == 0 and all(math.isfinite(v["value"]) for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if args.all:
        return run_all(args)
    if os.environ.get(PINNED_ENV) != "1":
        # the pins must be in the environment before numpy is imported and
        # before the allocator starts, and the address-space layout is fixed
        # at exec: replace this process with a fresh one
        env = {**os.environ, **PINS, PINNED_ENV: "1"}
        disable_aslr()
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    return run_workload(args, started)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
