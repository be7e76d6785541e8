#!/usr/bin/env python
"""Checkpointed fault-tolerance sweep: every injected failure must recover.

Where ``fault_sweep.py`` checks that injected faults are *detected*, this
sweep checks the stronger contract of the checkpoint/recovery layer: each
failure mode, across preconditioners and seeds, must **recover and finish
with the fault-free answer**: the two in-memory legs bit-exactly (rel
err == 0.0) on both transports, the ALM restart within 1e-8 on lockstep.
The legs, each one injection call on either transport:

``rank_kill``
    ``inject_kill`` kills one domain mid-solve (its halo state is
    destroyed), and :class:`~repro.resilience.taxonomy.RankFailure` is
    raised.  :func:`parallel_cg` rebuilds the dead rank from its durable
    local data (``DistributedSystem.enable_recovery``) — its set-up runs
    again, in a replacement worker on the process transport — rolls back
    to the last in-memory checkpoint, and resumes: local failure, local
    recovery.

``rollback``
    ``inject_worker_fault`` corrupts one ghost value of a halo exchange
    (nan / bitflip).  The owner/ghost probe detects it; instead of
    aborting, the solver rolls back to the last checkpoint and re-runs
    the window.

``process_kill``
    The whole ALM outer loop is killed after a journaled cycle
    (``solve_nonlinear_contact`` with ``checkpoint_path``), then re-run
    from the durable journal; the resumed run must reproduce the
    uninterrupted run bit-for-bit.

``--transport process`` re-runs the matrix over the **real-process
transport** (:mod:`repro.parallel.transport`), where nothing is
simulated: the ``rank_kill`` leg SIGKILLs a live rank worker OS process
mid-solve (detection via EOF on its pipe, recovery via one replacement
worker forked for that rank alone, which rebuilds its factor because the
symbolic pattern died with the old one), the ``rollback`` leg corrupts a
ghost value inside a rank worker (caught by the checksums), a
``comm_timeout`` leg wedges a worker past the whole wait budget
(detected as ``COMM_TIMEOUT`` and recovered by rollback; the transport
replaces the wedged worker when it has not returned to its command loop
within the reap grace), and the ``process_kill`` leg forks the ALM outer
loop as a genuine child process and SIGKILLs it after a journaled cycle.
Recovery in process mode demands **bit-exact** agreement with the
undisturbed lockstep run (rel err == 0.0) — the determinism gate makes
the two transports interchangeable references.

Any miss is a non-zero exit.  ``--quick`` shrinks the matrix for CI
(also exercised by ``tests/test_failure_sweep.py``).

Usage::

    PYTHONPATH=src python scripts/failure_sweep.py            # full sweep
    PYTHONPATH=src python scripts/failure_sweep.py --quick    # CI smoke
    PYTHONPATH=src python scripts/failure_sweep.py --transport process --quick
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import obs
from repro.fem.generators import simple_block_model
from repro.fem.model import build_contact_problem
from repro.fem.nonlinear import solve_nonlinear_contact
from repro.parallel import DistributedSystem, contact_aware_partition, parallel_cg
from repro.precond import FAMILY_TABLE
from repro.resilience import FailureReason, SolveReport

REL_TOL = 1e-8


class SimulatedKill(Exception):
    """Stands in for SIGKILL in the process-restart leg."""


def _precond_factories(problem):
    """Label -> per-domain preconditioner factory (parallel_cg signature)."""
    return {
        f.stage: f.per_domain(problem.groups, problem.mesh.n_nodes)
        for f in (FAMILY_TABLE[name] for name in ("diag", "bic0", "sbbic0"))
    }


def _relerr(x, ref):
    denom = np.linalg.norm(ref) or 1.0
    return float(np.linalg.norm(x - ref) / denom)


def _alm_child(nl_args, factory, ck, kill_cycle, conn):
    """Child body for the real process-kill leg: run the journaled ALM
    loop and, once the kill cycle's journal entry is durable, tell the
    parent we're ready to die and block until the SIGKILL lands."""
    import time as _time

    from repro.fem.nonlinear import solve_nonlinear_contact as _solve

    def ready(cycle, info):
        if cycle == kill_cycle:
            conn.send(cycle)
            _time.sleep(600)  # killed long before this expires

    _solve(*nl_args, factory, max_cycles=30, checkpoint_path=ck,
           cycle_callback=ready)


def _fork_and_sigkill_alm(nl_args, factory, ck, kill_cycle) -> bool:
    """Fork the ALM outer loop as a real OS process and SIGKILL it after
    cycle *kill_cycle*'s journal write.  Returns True when the child was
    genuinely kill-9'ed (negative exit code), i.e. died non-gracefully."""
    import multiprocessing as mp
    import os
    import signal

    ctx = mp.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(
        target=_alm_child,
        args=(nl_args, factory, ck, kill_cycle, child_conn),
        daemon=True,
    )
    proc.start()
    if not parent_conn.poll(300):
        proc.kill()
        proc.join()
        raise RuntimeError("ALM child never reached its kill cycle")
    parent_conn.recv()
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=30)
    killed = proc.exitcode == -signal.SIGKILL
    parent_conn.close()
    child_conn.close()
    return killed


def run_sweep(
    *, quick: bool = False, ndomains: int = 3, transport: str = "lockstep"
) -> dict:
    """Execute the leg matrix; returns a JSON-printable summary.

    ``transport="lockstep"`` injects the failures into the emulation;
    ``transport="process"`` runs the solver over real forked worker
    processes and makes the failures genuine (SIGKILL, corrupted worker
    memory, wedged worker, killed ALM child).  The fault-free references
    are always computed on lockstep — the determinism gate guarantees the
    process transport reproduces them bit-for-bit, which is why the
    in-memory legs are held to rel err == 0.0.
    """
    if transport not in ("lockstep", "process"):
        raise ValueError(f"unknown sweep transport {transport!r}")
    if quick:
        mesh = simple_block_model(3, 3, 2, 3, 3)
        seeds = (7,)
        kill_slots = (5,)
    else:
        mesh = simple_block_model(4, 4, 3, 4, 4)
        seeds = (7, 23, 101)
        kill_slots = (2, 5, 11)
    problem = build_contact_problem(mesh, penalty=1e4)
    part = contact_aware_partition(mesh.coords, problem.groups, ndomains)
    factories = _precond_factories(problem)

    # fault-free reference per preconditioner (parallel_cg is deterministic)
    refs = {}
    for pname, factory in factories.items():
        system = DistributedSystem.from_global(problem.a, problem.b, part, factory)
        refs[pname] = parallel_cg(system)

    runs = []

    # leg 1: rank kill + local-failure-local-recovery ------------------
    # lockstep: the victim's halo vector is lost; process: the rank
    # delivers a genuine SIGKILL to its own worker OS process
    for pname, factory in factories.items():
        for seed in seeds:
            for slot in kill_slots:
                victim = int(np.random.default_rng(seed).integers(ndomains))
                system = DistributedSystem.from_global(
                    problem.a,
                    problem.b,
                    part,
                    factory,
                    transport=transport,
                )
                system.enable_recovery()
                system.comm.inject_kill(victim, at_exchange=slot)
                report = SolveReport()
                res = parallel_cg(
                    system, checkpoint_interval=4, report=report
                )
                err = _relerr(res.x, refs[pname].x)
                recovered = (
                    res.converged
                    and len(system.comm.kills) == 1
                    and len(system.comm.revivals) == 1
                    and err == 0.0
                )
                system.close()
                runs.append(
                    {
                        "leg": "rank_kill",
                        "transport": transport,
                        "precond": pname,
                        "seed": seed,
                        "slot": slot,
                        "victim": victim,
                        "recovered": bool(recovered),
                        "rel_err": err,
                        "detections": len(report.detections()),
                    }
                )

    # leg 2: transient corruption -> checkpoint rollback --------------
    for pname, factory in factories.items():
        for seed in seeds:
            victim = int(np.random.default_rng(seed).integers(ndomains))
            for kind in ("nan", "bitflip"):
                system = DistributedSystem.from_global(
                    problem.a, problem.b, part, factory, transport=transport
                )
                system.comm.inject_worker_fault(
                    victim, exchange=kill_slots[0], corrupt=kind
                )
                report = SolveReport()
                res = parallel_cg(system, checkpoint_interval=4, report=report)
                err = _relerr(res.x, refs[pname].x)
                recovered = (
                    res.converged
                    and res.rollbacks == 1
                    and any(
                        e.reason is FailureReason.COMM_FAULT
                        for e in report.detections()
                    )
                    and err == 0.0
                )
                system.close()
                runs.append(
                    {
                        "leg": "rollback",
                        "transport": transport,
                        "precond": pname,
                        "seed": seed,
                        "victim": victim,
                        "kind": kind,
                        "recovered": bool(recovered),
                        "rel_err": err,
                    }
                )

    # leg 3 (process only): wedged worker -> COMM_TIMEOUT -> rollback --
    if transport == "process":
        # small budget so the sweep doesn't wait out the default 30 s;
        # the injected 4x-budget wedge must trip COMM_TIMEOUT
        budget = 1.25
        for pname, factory in factories.items():
            for seed in seeds:
                victim = int(np.random.default_rng(seed).integers(ndomains))
                system = DistributedSystem.from_global(
                    problem.a,
                    problem.b,
                    part,
                    factory,
                    transport="process",
                    transport_opts={"budget": budget},
                )
                system.comm.inject_worker_fault(
                    victim, exchange=kill_slots[0], delay=4 * budget
                )
                report = SolveReport()
                res = parallel_cg(system, checkpoint_interval=4, report=report)
                err = _relerr(res.x, refs[pname].x)
                recovered = (
                    res.converged
                    and any(
                        e.reason is FailureReason.COMM_TIMEOUT
                        for e in report.detections()
                    )
                    and err == 0.0
                )
                system.close()
                runs.append(
                    {
                        "leg": "comm_timeout",
                        "transport": transport,
                        "precond": pname,
                        "seed": seed,
                        "victim": victim,
                        "recovered": bool(recovered),
                        "rel_err": err,
                        "rollbacks": res.rollbacks,
                    }
                )

    # leg 4: process kill + durable ALM restart ------------------------
    # the ALM loop needs the penalty-FREE stiffness (it adds its own)
    from repro.fem.assembly import assemble_stiffness
    from repro.fem.bc import all_dofs, apply_dirichlet, component_dofs, surface_load

    k = assemble_stiffness(mesh)
    f = surface_load(mesh, mesh.node_sets["zmax"], np.array([0.0, 0.0, -1.0]))
    fixed = np.unique(
        np.concatenate(
            [
                all_dofs(mesh.node_sets["zmin"]),
                component_dofs(mesh.node_sets["xmin"], 0),
                component_dofs(mesh.node_sets["ymin"], 1),
            ]
        )
    )
    a_free, b_free = apply_dirichlet(k.to_csr(), f, fixed)
    fac = {
        f.stage: lambda a, f=f: f.build(a, problem.groups)
        for f in (FAMILY_TABLE[name] for name in ("diag", "bic0", "sbbic0"))
    }
    nl_args = (a_free, b_free, problem.groups, mesh.n_nodes, 1e4)
    for pname, factory in fac.items():
        ref_nl = solve_nonlinear_contact(*nl_args, factory, max_cycles=30)
        for kill_cycle in (1,) if quick else (1, 2):
            with tempfile.TemporaryDirectory() as td:
                ck = Path(td) / "alm.journal"
                if transport == "process":
                    killed = _fork_and_sigkill_alm(
                        nl_args, factory, ck, kill_cycle
                    )
                else:

                    def killer(cycle, info, *, at=kill_cycle):
                        if cycle == at:
                            raise SimulatedKill

                    killed = False
                    try:
                        solve_nonlinear_contact(
                            *nl_args,
                            factory,
                            max_cycles=30,
                            checkpoint_path=ck,
                            cycle_callback=killer,
                        )
                    except SimulatedKill:
                        killed = True
                res_nl = solve_nonlinear_contact(
                    *nl_args, factory, max_cycles=30, checkpoint_path=ck
                )
                err = _relerr(res_nl.u, ref_nl.u)
                recovered = (
                    killed
                    and res_nl.converged == ref_nl.converged
                    and res_nl.cycles == ref_nl.cycles
                    and res_nl.resumed_from_cycle == kill_cycle
                    and err <= (0.0 if transport == "process" else REL_TOL)
                )
                runs.append(
                    {
                        "leg": "process_kill",
                        "transport": transport,
                        "precond": pname,
                        "kill_cycle": kill_cycle,
                        "killed": bool(killed),
                        "recovered": bool(recovered),
                        "rel_err": err,
                        "bit_exact": bool(np.array_equal(res_nl.u, ref_nl.u)),
                    }
                )

    n_runs = len(runs)
    n_rec = sum(r["recovered"] for r in runs)
    return {
        "runs": runs,
        "n_runs": n_runs,
        "recovery_rate": n_rec / n_runs if n_runs else 0.0,
        "max_rel_err": max((r["rel_err"] for r in runs), default=0.0),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="small CI-smoke matrix")
    ap.add_argument("--ndomains", type=int, default=3)
    ap.add_argument(
        "--transport", default="lockstep", choices=["lockstep", "process"],
        help="communication fabric: 'process' makes every failure genuine "
        "(real SIGKILL of worker/ALM processes, real wedged-worker "
        "timeouts) and holds recovery to bit-exact agreement",
    )
    ap.add_argument("--json", action="store_true", help="dump full JSON summary")
    ap.add_argument(
        "--trace", default=None, metavar="PATH",
        help="export a Chrome trace-event JSON of the whole sweep",
    )
    args = ap.parse_args(argv)

    if args.trace is not None:
        with obs.observe() as tracer:
            summary = run_sweep(quick=args.quick, ndomains=args.ndomains, transport=args.transport)
        obs.export_chrome_trace(tracer, args.trace)
        print(f"trace written to {args.trace}")
    else:
        summary = run_sweep(quick=args.quick, ndomains=args.ndomains, transport=args.transport)
    if args.json:
        print(json.dumps(summary, indent=2))
    by_leg: dict[str, list] = {}
    for r in summary["runs"]:
        by_leg.setdefault(r["leg"], []).append(r)
    for leg, rs in by_leg.items():
        ok = sum(r["recovered"] for r in rs)
        print(f"  {leg}: {ok}/{len(rs)} recovered")
    print(
        f"failure sweep: {summary['n_runs']} runs, "
        f"recovery rate {summary['recovery_rate']:.0%}, "
        f"max rel err {summary['max_rel_err']:.3e}"
    )
    if summary["recovery_rate"] < 1.0:
        missed = [r for r in summary["runs"] if not r["recovered"]]
        print(f"MISSED RECOVERIES ({len(missed)}):")
        for r in missed:
            print(f"  {r}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
