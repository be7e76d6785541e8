"""Command-line interface: run experiments and quick solves.

::

    python -m repro list
    python -m repro run table02 --scale 0.8
    python -m repro solve --model block --penalty 1e6 --precond sbbic0
    python -m repro solve --model block --penalty 1e6 --precond auto
    python -m repro trace --model block --precond sbbic0 --out trace.json

``run`` and ``solve`` accept ``--trace PATH`` to capture the whole
command in a unified observability trace (:mod:`repro.obs`); ``trace``
is the dedicated entry point that also prints the span/metric summary
table.  A ``.jsonl`` suffix selects the JSON-lines exporter, anything
else gets Chrome trace-event JSON (load it in ``chrome://tracing`` or
Perfetto).

``solve``/``trace`` also run distributed: ``--transport process``
partitions the model (RCB, ``--ndomains``) and solves over real forked
worker processes (:mod:`repro.parallel.transport`); ``--rank-traces
DIR`` makes each worker export a rank-tagged JSONL trace, merged into
one Chrome timeline (plus a per-rank set-up/compute/wait table) with ``repro
trace --merge DIR/trace.rank*.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro import obs
from repro.precond import DEFAULT_FAMILY, FAMILY_TABLE, PRECONDS


def _export_trace(tracer: obs.Tracer, path: str) -> None:
    """Write *tracer* to *path*; the suffix picks the format."""
    if path.endswith(".jsonl"):
        obs.export_jsonl(tracer, path)
    else:
        obs.export_chrome_trace(tracer, path)
    print(f"trace written to {path}")


@contextlib.contextmanager
def _maybe_observe(trace_path: str | None):
    """Observe and export when a ``--trace`` path was given; else no-op."""
    if trace_path is None:
        yield None
        return
    with obs.observe() as tracer:
        yield tracer
    _export_trace(tracer, trace_path)


def _cmd_list(_args) -> int:
    from repro.experiments.index import EXPERIMENTS

    width = max(len(k) for k in EXPERIMENTS)
    for exp in EXPERIMENTS.values():
        print(f"{exp.key.ljust(width)}  {exp.title}")
    return 0


def _cmd_run(args) -> int:
    from repro.experiments.index import EXPERIMENTS

    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; try 'list'", file=sys.stderr)
        return 2
    exp = EXPERIMENTS[args.experiment]
    kwargs = dict(exp.kwargs)
    if args.scale is not None and "scale" in kwargs:
        kwargs["scale"] = args.scale
    with _maybe_observe(getattr(args, "trace", None)):
        table = exp.run(**kwargs)
    table.print()
    return 0 if table.all_claims_hold else 1


def _problem(args):
    """The ``--model`` problem at ``--scale`` and ``--penalty``."""
    from repro.experiments import workloads

    make = {"block": workloads.block_problem, "swjapan": workloads.swjapan_problem}
    return make[args.model](args.scale, penalty=args.penalty)


def _run_solve(args) -> int:
    """Shared body of the ``solve`` and ``trace`` commands."""
    from repro import cg_solve

    prob = _problem(args)
    if args.transport:
        return _run_distributed_solve(args, prob)
    if args.precond == "auto":
        return _run_policy_solve(args, prob)

    family = FAMILY_TABLE[args.precond]
    m = family.build(prob.a, prob.groups)
    res = cg_solve(prob.a, prob.b, m, max_iter=args.max_iter)
    print(f"model: {prob.ndof} DOF, penalty {args.penalty:g}, precond {m.name}")
    print(res)
    memory = f"factor {m.memory_bytes() / 1e6:.2f} MB"
    if family.has_symbolic:
        stats = m.factorization_stats()
        memory += (
            f", plan {stats['plan_bytes'] / 1e6:.2f} MB"
            f", symbolic {stats['symbolic_bytes'] / 1e6:.2f} MB"
        )
    peak = _peak_rss_mib()
    if peak is not None:
        memory += f", peak RSS {peak:.1f} MiB"
    print(f"set-up {m.setup_seconds:.3f}s, memory: {memory}")
    return 0 if res.converged else 1


def _peak_rss_mib() -> float | None:
    """This process's resident-set high-water mark in MiB (set-up
    included), where the platform reports one."""
    try:
        import resource
    except ImportError:  # Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes there, KiB here


def _run_policy_solve(args, prob) -> int:
    """Solve through the cost model's ladder (``--precond auto``)."""
    from repro.policy import SolverPolicy
    from repro.resilience.resilient import ResilientSolver

    policy = SolverPolicy()
    stages, decision = policy.ladder(prob.a, prob.groups)
    print(decision.explain())
    solver = ResilientSolver(
        prob.a, stages, max_iter=args.max_iter,
        on_stage_result=lambda stage, r: policy.record_outcome(
            decision, stage.family, stage=stage.name,
            seconds=r.solve_seconds, converged=r.converged,
            iterations=r.iterations,
        ),
    )
    res = solver.solve(prob.b)
    print(f"model: {prob.ndof} DOF, penalty {args.penalty:g}, precond auto")
    print(res)
    return 0 if res.converged else 1


def _run_distributed_solve(args, prob) -> int:
    """Distributed solve over the selected transport (``--transport``)."""
    from repro.parallel import (
        DistributedSystem,
        parallel_cg,
        partition_nodes_rcb,
    )

    family = FAMILY_TABLE.get(args.precond)
    if family is None or not family.localized:
        print(
            f"preconditioner {args.precond!r} has no per-domain (localized) "
            f"form; choose from {sorted(f.name for f in FAMILY_TABLE.values() if f.localized)}",
            file=sys.stderr,
        )
        return 2
    traced = args.transport == "process" and getattr(args, "rank_traces", None)
    opts = {"trace_dir": args.rank_traces} if traced else {}
    part = partition_nodes_rcb(prob.mesh.coords, args.ndomains)
    with DistributedSystem.from_global(
        prob.a,
        prob.b,
        part,
        family.per_domain(prob.groups, prob.mesh.n_nodes),
        transport=args.transport,
        transport_opts=opts,
    ) as system:
        res = parallel_cg(system, max_iter=args.max_iter)
        log = system.comm_log
        print(
            f"model: {prob.ndof} DOF, penalty {args.penalty:g}, "
            f"precond {args.precond}, transport {args.transport}, "
            f"{args.ndomains} domains"
        )
        print(res)
        print(
            f"comm: {log.n_messages} messages, {log.bytes_sent} bytes, "
            f"{log.n_allreduce} allreduces"
        )
    if traced:
        print(
            f"per-rank traces in {args.rank_traces} "
            f"(merge: repro trace --merge {args.rank_traces}/trace.rank*.jsonl "
            f"--out merged.json)"
        )
    return 0 if res.converged else 1


def _cmd_solve(args) -> int:
    with _maybe_observe(args.trace):
        rc = _run_solve(args)
    return rc


def _build_queue(args):
    """Assemble session + admission + optional pool + queue from serve args.

    Returns ``(queue, pool)`` — the caller owns closing both."""
    from repro.serve import (
        AdmissionController, AdmissionPolicy, JobQueue, RetentionPolicy,
        SolverSession, WorkerPool,
    )

    session = SolverSession(capacity=args.capacity)
    admission = AdmissionController(AdmissionPolicy(
        max_queue_depth=args.max_queue_depth,
        max_payload_bytes=args.max_payload_bytes,
        default_deadline_s=args.default_deadline,
    ))
    pool = None
    if args.workers > 0:
        pool = WorkerPool(session, workers=args.workers, admission=admission)
    retention = RetentionPolicy(
        keep_last=args.retention_keep, max_bytes=args.retention_max_bytes
    )
    queue = JobQueue(
        session, journal_dir=args.journal_dir,
        pool=pool, admission=admission, retention=retention,
    )
    return queue, pool


def _cmd_serve(args) -> int:
    """Long-lived solver service over stdio or a unix socket."""
    from repro.serve import serve_socket, serve_stdio

    queue, pool = _build_queue(args)
    try:
        with _maybe_observe(args.trace) as tracer:
            if args.resume:
                recovered = queue.resume()
                print(f"resumed {len(recovered)} journaled job(s)", file=sys.stderr)
            if args.socket:
                print(f"serving on {args.socket}", file=sys.stderr)
                answered = serve_socket(
                    queue, args.socket,
                    max_connections=args.max_connections,
                    write_timeout_s=args.write_timeout,
                )
            else:
                answered = serve_stdio(queue)
            print(f"served {answered} job(s)", file=sys.stderr)
            if tracer is not None:
                print(obs.requests_table(tracer), file=sys.stderr)
    finally:
        if pool is not None:
            pool.close()
        queue.close()
    return 0


def _cmd_batch(args) -> int:
    """One-shot mode: solve a JSONL request file as a single batch."""
    from repro.serve import run_batch

    queue, pool = _build_queue(args)
    try:
        with _maybe_observe(args.trace) as tracer:
            if args.resume:
                queue.resume()
            jobs = run_batch(queue, args.requests, args.out)
            if args.out is None:
                for job in jobs:
                    print(job.response.to_json_line())
            if tracer is not None:
                print(obs.requests_table(tracer), file=sys.stderr)
    finally:
        if pool is not None:
            pool.close()
        queue.close()
    if args.out is not None:
        print(f"responses written to {args.out}", file=sys.stderr)
    return 0 if all(j.state == "done" for j in jobs) else 1


def _cmd_policy(args) -> int:
    """Show what the solver policy would decide for one problem."""
    from repro.policy import SolverPolicy

    prob = _problem(args)
    print(SolverPolicy().decide(prob.a, prob.groups).explain())
    return 0


def _cmd_trace(args) -> int:
    if args.merge:
        out = obs.merge_rank_traces(args.merge, args.out)
        print(f"merged {len(args.merge)} rank trace(s) into {out}")
        print(obs.rank_time_table(args.merge))
        return 0
    if args.requests:
        records = obs.load_jsonl_records(args.requests)
        print(obs.requests_table(records))
        policy = obs.policy_table(records)
        if policy != "(no policy spans in trace)":
            print()
            print(policy)
        return 0
    with obs.observe() as tracer:
        rc = _run_solve(args)
    print()
    print(obs.summary_table(tracer))
    _export_trace(tracer, args.out)
    return rc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GeoFEM selective-blocking reproduction (Nakajima, SC 2003)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment harness")
    p_run.add_argument("experiment")
    p_run.add_argument(
        "--scale", type=float, default=None,
        help="resize a mesh campaign (default: its EXPERIMENTS.md size)",
    )
    p_run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="export an observability trace of the run "
        "(.jsonl = JSON-lines, otherwise Chrome trace-event JSON)",
    )
    p_run.set_defaults(fn=_cmd_run)

    def add_solve_args(p) -> None:
        p.add_argument("--model", default="block", choices=["block", "swjapan"])
        p.add_argument("--penalty", type=float, default=1e6)
        p.add_argument(
            "--precond", default=DEFAULT_FAMILY, choices=PRECONDS,
            help="preconditioner family, or auto: solve through the "
            "cost model's escalation ladder (default %(default)s)",
        )
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--max-iter", type=int, default=20000)
        p.add_argument(
            "--transport", default=None,
            choices=["lockstep", "process"],
            help="run the solve distributed over this communication "
            "fabric (default: sequential solve)",
        )
        p.add_argument(
            "--ndomains", type=int, default=4,
            help="domain count for a --transport solve (default 4)",
        )
        p.add_argument(
            "--rank-traces", default=None, metavar="DIR",
            help="with --transport process: each worker writes its own "
            "rank-tagged trace.rank<r>.jsonl into DIR "
            "(merge with: repro trace --merge DIR/trace.rank*.jsonl)",
        )

    p_solve = sub.add_parser("solve", help="solve one model once")
    add_solve_args(p_solve)
    p_solve.add_argument(
        "--trace", default=None, metavar="PATH",
        help="export an observability trace of the solve",
    )
    p_solve.set_defaults(fn=_cmd_solve)

    p_trace = sub.add_parser(
        "trace", help="solve one model under full tracing and summarize"
    )
    add_solve_args(p_trace)
    p_trace.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="trace output path (default trace.json; .jsonl = JSON-lines)",
    )
    p_trace.add_argument(
        "--merge", default=None, nargs="+", metavar="JSONL",
        help="merge per-rank JSON-lines traces (written by --rank-traces) "
        "into one Chrome trace at --out instead of solving",
    )
    p_trace.add_argument(
        "--requests", default=None, metavar="JSONL",
        help="print the per-request serving view of an exported serve "
        "trace (one line per job: fingerprint, cache hits, iterations, "
        "wall time) instead of solving",
    )
    p_trace.set_defaults(fn=_cmd_trace)

    p_policy = sub.add_parser(
        "policy",
        help="inspect the solver policy (probe + cost ranking) for a model",
    )
    p_policy.add_argument("action", choices=["explain"])
    p_policy.add_argument("--model", default="block", choices=["block", "swjapan"])
    p_policy.add_argument("--scale", type=float, default=1.0)
    p_policy.add_argument("--penalty", type=float, default=1e6)
    p_policy.set_defaults(fn=_cmd_policy)

    def add_serve_args(p) -> None:
        p.add_argument(
            "--journal-dir", default=None, metavar="DIR",
            help="journal every job durably under DIR (enables idempotent "
            "retry and crash resume; default: in-memory only)",
        )
        p.add_argument(
            "--capacity", type=int, default=8,
            help="LRU capacity of each workspace cache tier (default 8)",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="before serving, recover in-flight jobs from --journal-dir",
        )
        p.add_argument(
            "--trace", default=None, metavar="PATH",
            help="export an observability trace of the serving run "
            "(view per-request with: repro trace --requests PATH)",
        )
        p.add_argument(
            "--workers", type=int, default=0, metavar="N",
            help="dispatch independent solve groups to N forked worker "
            "processes (default 0 = serial in-process solving)",
        )
        p.add_argument(
            "--max-queue-depth", type=int, default=256, metavar="N",
            help="admission bound on pending+running jobs; a full queue "
            "answers a structured 'overloaded' rejection (default 256)",
        )
        p.add_argument(
            "--max-payload-bytes", type=int, default=32 << 20, metavar="B",
            help="admission bound on one request's explicit RHS payload "
            "(default 32 MiB)",
        )
        p.add_argument(
            "--default-deadline", type=float, default=None, metavar="S",
            help="deadline in seconds applied to requests that name none "
            "(default: no implicit deadline)",
        )
        p.add_argument(
            "--retention-keep", type=int, default=None, metavar="N",
            help="keep the N most recent finished jobs, in the job log and "
            "in memory, after each batch (default: keep everything)",
        )
        p.add_argument(
            "--retention-max-bytes", type=int, default=None, metavar="B",
            help="drop oldest finished jobs (down to B/2) once the job log "
            "file exceeds B bytes (default: unbounded)",
        )

    p_serve = sub.add_parser(
        "serve",
        help="persistent solver service (JSONL requests on stdin, or --socket)",
    )
    add_serve_args(p_serve)
    p_serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="listen on a unix domain socket instead of stdio",
    )
    p_serve.add_argument(
        "--max-connections", type=int, default=32, metavar="N",
        help="concurrent socket connections; excess connects get a "
        "structured 'overloaded' line (default 32)",
    )
    p_serve.add_argument(
        "--write-timeout", type=float, default=15.0, metavar="S",
        help="per-write timeout; a client that stops draining its socket "
        "is disconnected, never wedges a handler (default 15s)",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_batch = sub.add_parser(
        "batch", help="solve a JSONL request file as one coalesced batch"
    )
    add_serve_args(p_batch)
    p_batch.add_argument("requests", help="JSONL request file (one job per line)")
    p_batch.add_argument(
        "--out", default=None, metavar="PATH",
        help="write responses here (default: stdout)",
    )
    p_batch.set_defaults(fn=_cmd_batch)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
