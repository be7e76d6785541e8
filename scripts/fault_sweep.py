#!/usr/bin/env python
"""Seeded fault-injection sweep: fault kind x preconditioner matrix.

For every combination of halo-exchange fault kind (``nan`` /
``bitflip``) and local preconditioner (diagonal, BIC(0), localized
SB-BIC(0)), and for several seeds, this script:

1. partitions the Fig. 23 contact model and runs :func:`parallel_cg` on
   the lockstep emulation with exactly one fault armed by
   ``inject_worker_fault``: the victim rank, drawn from the seed,
   receives one corrupted ghost value in the chosen exchange;
2. asserts the fault is **detected** — the solve ends with
   ``reason=COMM_FAULT`` (never a silently wrong "converged" answer) and
   the returned iterate is finite;
3. re-runs the same system through the
   :class:`~repro.resilience.resilient.ResilientSolver` fallback chain on
   the sequential side with a sabotaged first rung, asserting **recovery**
   (convergence to 1e-8 despite the failure).

The sweep must come back 100% detected / 100% recovered; any miss is a
non-zero exit.  ``--quick`` shrinks the matrix for the tier-1 smoke run
(also exercised by ``tests/test_resilience_sweep.py`` via
``pytest -m "not bench"``).

Usage::

    PYTHONPATH=src python scripts/fault_sweep.py            # full sweep
    PYTHONPATH=src python scripts/fault_sweep.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro import obs
from repro.fem.generators import simple_block_model
from repro.fem.model import build_contact_problem
from repro.parallel import DistributedSystem, contact_aware_partition, parallel_cg
from repro.precond import FAMILY_TABLE, DiagonalScaling, sb_bic0
from repro.resilience import (
    FailureReason,
    FallbackStage,
    ResilientSolver,
    SolveReport,
)

FAULT_KINDS = ("nan", "bitflip")


def _precond_factories(problem):
    """Label -> per-domain preconditioner factory (parallel_cg signature)."""
    return {
        f.stage: f.per_domain(problem.groups, problem.mesh.n_nodes)
        for f in (FAMILY_TABLE[name] for name in ("diag", "bic0", "sbbic0"))
    }


def run_sweep(*, quick: bool = False, ndomains: int = 3) -> dict:
    """Execute the matrix; returns a summary dict (also JSON-printable)."""
    if quick:
        mesh = simple_block_model(3, 3, 2, 3, 3)
        seeds = (7,)
        exchanges = (1,)
    else:
        mesh = simple_block_model(4, 4, 3, 4, 4)
        seeds = (7, 23, 101)
        exchanges = (0, 1, 5)
    problem = build_contact_problem(mesh, penalty=1e4)
    part = contact_aware_partition(mesh.coords, problem.groups, ndomains)
    factories = _precond_factories(problem)

    runs = []
    for pname, factory in factories.items():
        for kind in FAULT_KINDS:
            for seed in seeds:
                victim = int(np.random.default_rng(seed).integers(ndomains))
                for exchange in exchanges:
                    system = DistributedSystem.from_global(
                        problem.a, problem.b, part, factory
                    )
                    system.comm.inject_worker_fault(victim, exchange, corrupt=kind)
                    report = SolveReport()
                    res = parallel_cg(system, report=report)
                    detected = (
                        not res.converged
                        and res.reason is FailureReason.COMM_FAULT
                        and res.iterations == exchange
                        and np.isfinite(res.x).all()
                    )
                    runs.append(
                        {
                            "precond": pname,
                            "kind": kind,
                            "seed": seed,
                            "victim": victim,
                            "exchange": exchange,
                            "detected": bool(detected),
                            "detect_iteration": res.iterations,
                        }
                    )

    # recovery leg: sabotaged first rung, chain must still converge
    recoveries = []
    for seed in seeds:

        def broken_setup():
            raise np.linalg.LinAlgError("sabotaged rung")

        ladder = [
            FallbackStage("sabotaged", broken_setup),
            FallbackStage("SB-BIC(0)", lambda: sb_bic0(problem.a, problem.groups)),
            FallbackStage("Diagonal", lambda: DiagonalScaling(problem.a)),
        ]
        solver = ResilientSolver(problem.a, ladder)
        res = solver.solve(problem.b)
        recoveries.append(
            {
                "seed": seed,
                "recovered": bool(res.converged and res.relative_residual <= 1e-8),
                "escalations": len(solver.report.retries()),
            }
        )

    n_runs = len(runs)
    n_detected = sum(r["detected"] for r in runs)
    n_rec = sum(r["recovered"] for r in recoveries)
    return {
        "runs": runs,
        "recoveries": recoveries,
        "n_runs": n_runs,
        "detection_rate": n_detected / n_runs if n_runs else 0.0,
        "recovery_rate": n_rec / len(recoveries) if recoveries else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="small CI-smoke matrix")
    ap.add_argument("--ndomains", type=int, default=3)
    ap.add_argument("--json", action="store_true", help="dump full JSON summary")
    ap.add_argument(
        "--trace", default=None, metavar="PATH",
        help="export a Chrome trace-event JSON of the whole sweep",
    )
    args = ap.parse_args(argv)

    if args.trace is not None:
        with obs.observe() as tracer:
            summary = run_sweep(quick=args.quick, ndomains=args.ndomains)
        obs.export_chrome_trace(tracer, args.trace)
        print(f"trace written to {args.trace}")
    else:
        summary = run_sweep(quick=args.quick, ndomains=args.ndomains)
    if args.json:
        print(json.dumps(summary, indent=2))
    print(
        f"fault sweep: {summary['n_runs']} injection runs, "
        f"detection rate {summary['detection_rate']:.0%}, "
        f"recovery rate {summary['recovery_rate']:.0%}"
    )
    if summary["detection_rate"] < 1.0:
        missed = [r for r in summary["runs"] if not r["detected"]]
        print(f"MISSED DETECTIONS ({len(missed)}):")
        for r in missed:
            print(f"  {r}")
        return 1
    if summary["recovery_rate"] < 1.0:
        print("MISSED RECOVERIES:", [r for r in summary["recoveries"] if not r["recovered"]])
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
