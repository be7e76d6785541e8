"""Trace exporters: JSON-lines, Chrome trace-event format, terminal table.

Three consumers, three formats:

- :func:`export_jsonl` — one flat JSON object per span/event per line.
  Greppable and diffable: two runs of the same experiment can be
  compared with line tools, which is how trace regressions are hunted.
- :func:`export_chrome_trace` — the ``chrome://tracing`` /
  https://ui.perfetto.dev trace-event JSON: matched ``B``/``E`` duration
  events per span (events as instants ``i``), timestamps in microseconds
  relative to the tracer epoch.  Drop the file into a trace viewer to
  *see* the ALM cycle / setup / CG / halo-exchange nesting.
- :func:`summary_table` — a terminal table of per-span-name aggregates
  (count, total, mean) and the point-event count, for humans at the end
  of a CLI run.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.core import Span, Tracer

__all__ = [
    "chrome_trace_events",
    "export_chrome_trace",
    "export_jsonl",
    "load_jsonl_records",
    "merge_rank_traces",
    "policy_table",
    "rank_time_table",
    "requests_table",
    "summary_table",
]


def _flat(span: Span, t0: float) -> dict:
    """One span as a flat (childless) JSON-safe record."""
    return {
        "kind": span.kind,
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "tid": span.tid,
        "t_start_s": span.t_start - t0,
        "duration_s": None if span.t_end is None else span.t_end - span.t_start,
        "attrs": dict(span.attrs),
    }


def export_jsonl(tracer: Tracer, path, *, rank: int | None = None) -> Path:
    """Write the trace as JSON-lines; returns the path written.

    ``rank`` tags every record with the emitting rank and prepends a
    ``{"kind": "meta", ...}`` record carrying the tracer epoch ``t0``
    (``time.perf_counter`` — CLOCK_MONOTONIC on Linux, comparable across
    processes on one machine).  That epoch is what lets
    :func:`merge_rank_traces` place per-rank files on one absolute
    timeline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        if rank is not None:
            fh.write(
                json.dumps(
                    {"kind": "meta", "rank": int(rank), "t0": tracer.t0}
                )
                + "\n"
            )
        for span in tracer.iter_spans():
            rec = _flat(span, tracer.t0)
            if rank is not None:
                rec["rank"] = int(rank)
            fh.write(json.dumps(rec) + "\n")
    return path


def _rank_records(paths) -> list[tuple[int, float | None, dict]]:
    """``(rank, file epoch t0, record)`` for every span/event of per-rank
    JSONL files; a rank may have several files (one per worker process,
    when a dead or wedged one was replaced)."""
    out = []
    for i, p in enumerate(paths):
        t0 = None
        for rec in load_jsonl_records(p):
            rank = int(rec.get("rank", i))
            if rec.get("kind") == "meta":
                t0 = float(rec["t0"])
            elif rec.get("kind") in ("span", "event"):
                out.append((rank, t0, rec))
    return out


def merge_rank_traces(paths, out) -> Path:
    """Merge per-rank JSONL traces into one Chrome trace-event file.

    Input files are the ``trace.rank<r>*.jsonl`` exports a process
    transport's workers rewrite after every command (``export_jsonl(...,
    rank=r)``).  Each rank becomes its own ``pid`` lane (named
    ``rank <r>`` via process_name metadata); spans become complete
    ``X`` events.  When every file carries a ``meta`` record with its
    tracer epoch, timestamps are aligned on the shared monotonic clock,
    so cross-rank concurrency (which rank kept its peers waiting) reads
    directly off the merged timeline; files without one fall back to
    their own relative time.  Returns the path written."""
    events: list[dict] = []
    records = _rank_records(paths)
    # align on the shared monotonic clock; the earliest epoch becomes the
    # merged timeline's zero
    base = min((t0 for _, t0, _ in records if t0 is not None), default=0.0)
    for rank, t0, rec in records:
        offset = (base if t0 is None else t0) - base
        ts = (rec["t_start_s"] + offset) * 1e6
        common = {
            "name": rec["name"],
            "pid": rank,
            "tid": rec.get("tid", 0),
            "ts": ts,
            "args": rec.get("attrs", {}),
        }
        if rec["kind"] == "event" or rec.get("duration_s") is None:
            events.append({**common, "ph": "i", "s": "t"})
        else:
            events.append(
                {**common, "ph": "X", "dur": rec["duration_s"] * 1e6}
            )
    for rank in sorted({r for r, _, _ in records}):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": rank,
                "args": {"name": f"rank {rank}"},
            }
        )
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}, indent=1)
    )
    return out


def rank_time_table(paths) -> str:
    """Where each rank's time went, from per-rank JSONL traces: seconds
    building its own factor, computing, waiting for peers at halo
    exchanges and at allreduces, and copying halos, plus the
    communication share of the solve — the comm/compute split of the
    paper's Fig. 20, measured on a real run, with set-up beside it."""
    cols = ("rank.setup", "rank.compute", "halo", "allreduce", "halo_exchange")
    totals: dict[int, dict[str, float]] = {}
    for rank, _, rec in _rank_records(paths):
        name = rec["name"]
        if name == "rank.wait":
            name = rec["attrs"].get("kind")
        if name in cols and rec.get("duration_s") is not None:
            row = totals.setdefault(rank, dict.fromkeys(cols, 0.0))
            row[name] += rec["duration_s"]
    if not totals:
        return "(no rank.compute / rank.wait spans in trace)"
    lines = [
        f"{'rank':>4} {'setup s':>9} {'compute s':>10} {'wait halo s':>12} "
        f"{'wait allred s':>14} {'halo copy s':>12} {'comm %':>7}"
    ]
    for rank, row in sorted(totals.items()):
        solve = sum(row.values()) - row["rank.setup"]
        comm = solve - row["rank.compute"]
        share = 100.0 * comm / solve if comm else 0.0
        lines.append(
            f"{rank:>4} {row['rank.setup']:>9.4f} {row['rank.compute']:>10.4f} "
            f"{row['halo']:>12.4f} {row['allreduce']:>14.4f} "
            f"{row['halo_exchange']:>12.4f} {share:>7.1f}"
        )
    return "\n".join(lines)


def chrome_trace_events(tracer: Tracer) -> dict:
    """The trace as a Chrome trace-event document (a plain dict).

    Spans become matched ``B``/``E`` pairs; zero-duration events become
    thread-scoped instants (``ph: "i"``).  Emission is per-span-subtree
    in pre-order, which keeps the ``B``/``E`` nesting well-formed within
    each thread lane — the property the CI smoke test asserts.
    """
    t0 = tracer.t0
    events: list[dict] = []

    def emit(span: Span) -> None:
        ts = (span.t_start - t0) * 1e6
        args = {k: _json_safe(v) for k, v in span.attrs.items()}
        if span.kind == "event":
            events.append(
                {
                    "name": span.name,
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": 1,
                    "tid": span.tid,
                    "args": args,
                }
            )
            return
        end = span.t_end if span.t_end is not None else span.t_start
        events.append(
            {
                "name": span.name,
                "ph": "B",
                "ts": ts,
                "pid": 1,
                "tid": span.tid,
                "args": args,
            }
        )
        for c in span.children:
            emit(c)
        events.append(
            {
                "name": span.name,
                "ph": "E",
                "ts": (end - t0) * 1e6,
                "pid": 1,
                "tid": span.tid,
            }
        )

    for root in list(tracer.roots):
        emit(root)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome_trace(tracer: Tracer, path) -> Path:
    """Write the Chrome trace-event JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace_events(tracer), indent=1))
    return path


def _json_safe(v):
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    if hasattr(v, "tolist"):
        return v.tolist()
    return str(v)


def summary_table(tracer: Tracer | None) -> str:
    """Human-readable summary: span aggregates by name, then the number
    of point events."""
    lines: list[str] = []
    if tracer is not None:
        agg: dict[str, list[float]] = {}
        for span in tracer.iter_spans():
            if span.kind != "span":
                continue
            agg.setdefault(span.name, []).append(span.duration)
        if agg:
            name_w = max(len(n) for n in agg) + 2
            lines.append(
                f"{'span'.ljust(name_w)}{'count':>8}{'total s':>12}{'mean ms':>12}"
            )
            for name in sorted(agg, key=lambda n: -sum(agg[n])):
                durs = agg[name]
                lines.append(
                    f"{name.ljust(name_w)}{len(durs):>8}"
                    f"{sum(durs):>12.4f}{1e3 * sum(durs) / len(durs):>12.3f}"
                )
        n_events = sum(1 for s in tracer.iter_spans() if s.kind == "event")
        if n_events:
            lines.append(f"({n_events} point events)")
    return "\n".join(lines) if lines else "(empty trace)"


def load_jsonl_records(path) -> list[dict]:
    """Load a JSON-lines trace back into flat record dicts."""
    records: list[dict] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _policy_spans(source, names: set[str]) -> list[dict]:
    if isinstance(source, Tracer):
        return [
            _flat(s, source.t0)
            for s in source.iter_spans()
            if s.kind == "span" and s.name in names
        ]
    return [
        r for r in source
        if r.get("kind") == "span" and r.get("name") in names
    ]


def _aligned(rows: list[tuple[str, ...]]) -> list[str]:
    """*rows* as text lines, each column padded to its widest cell."""
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def policy_table(source) -> str:
    """Per-decision view of the solver policy's activity in a trace.

    *source* is either a live :class:`Tracer` or an iterable of flat
    JSONL records.  One line per ``policy.decide`` span (probe
    fingerprint and decided order), followed by one line per
    ``policy.outcome`` span (which family actually ran, whether it
    converged, its iterations and wall time) — the at-a-glance answer
    to "what did the policy choose, and what did that cost".
    """
    decides = _policy_spans(source, {"policy.decide"})
    outcomes = _policy_spans(source, {"policy.outcome"})
    if not decides and not outcomes:
        return "(no policy spans in trace)"
    lines: list[str] = []
    if decides:
        decides.sort(key=lambda r: r.get("t_start_s") or 0.0)
        rows = [("fingerprint", "order", "ms")]
        for r in decides:
            at = r.get("attrs", {})
            rows.append((
                str(at.get("fingerprint", "") or "-"),
                str(at.get("order", "?")),
                f"{1e3 * (r.get('duration_s') or 0.0):.1f}",
            ))
        lines += _aligned(rows)
    if outcomes:
        outcomes.sort(key=lambda r: r.get("t_start_s") or 0.0)
        rows = [("fingerprint", "choice", "stage", "conv", "iters", "wall ms")]
        for r in outcomes:
            at = r.get("attrs", {})
            rows.append((
                str(at.get("fingerprint", "?")),
                str(at.get("choice", "?")),
                str(at.get("stage", "") or "-"),
                "y" if at.get("converged") else "n",
                str(at.get("iterations", "?")),
                f"{1e3 * (r.get('duration_s') or 0.0):.1f}",
            ))
        if lines:
            lines.append("")
        lines += _aligned(rows)
    return "\n".join(lines)


def requests_table(source) -> str:
    """Per-request view of a serving trace: one line per ``serve.job``.

    *source* is either a live :class:`Tracer` or an iterable of flat
    JSONL records (see :func:`load_jsonl_records`).  Shows, per job, the
    operator fingerprint, which cache tier answered (structure hit/miss,
    factor hit / swap / refactor / numeric / build), the setup-counter deltas
    the job caused, coalescing width, iterations, wall time, and — for
    requests the serving layer refused or quarantined — the failure
    reason (``overloaded``, ``request_timeout``, ``worker_crash``,
    ``poisoned_payload``) — the at-a-glance answer to "why was this
    request slow (or refused)".  A last line sums the trace's
    ``journal.commit`` spans: what durability cost those requests.
    """
    names = ("serve.job", "journal.commit")
    if isinstance(source, Tracer):
        spans = [_flat(s, source.t0) for s in source.iter_spans()
                 if s.kind == "span" and s.name in names]
    else:
        spans = [r for r in source
                 if r.get("kind") == "span" and r.get("name") in names]
    recs = [r for r in spans if r["name"] == "serve.job"]
    commits = [r for r in spans if r["name"] == "journal.commit"]
    if not recs:
        return "(no serve.job spans in trace)"
    recs.sort(key=lambda r: (r.get("t_start_s") or 0.0, r["attrs"].get("job_id", "")))
    header = ("job", "fingerprint", "model", "precond", "cache", "setups",
              "coal", "iters", "conv", "wall ms", "reason")
    rows = [header]
    for r in recs:
        at = r.get("attrs", {})
        dur = r.get("duration_s") or 0.0
        if at.get("rejected"):
            rows.append((
                str(at.get("job_id", "?")), "", "", "", "", "", "", "",
                "n", "", str(at.get("reason", "?")),
            ))
            continue
        rows.append((
            str(at.get("job_id", "?")),
            str(at.get("fingerprint", ""))[:12],
            f"{at.get('model', '?')}@{at.get('penalty', 0):g}",
            str(at.get("precond", "?")),
            f"{at.get('structure', '?')}/{at.get('factor', '?')}",
            f"s{at.get('symbolic_setups', 0)} n{at.get('numeric_setups', 0)}",
            str(at.get("coalesced", 1)),
            str(at.get("iterations", "?")),
            "y" if at.get("converged") else "n",
            f"{1e3 * dur:.1f}",
            str(at.get("reason", "") or ""),
        ))
    lines = _aligned(rows)
    if commits:
        # what durability cost these requests: one line, since a commit
        # serves a whole batch and belongs to no single job
        seconds = sorted(r.get("duration_s") or 0.0 for r in commits)
        lines.append(
            f"journal: {len(commits)} commits, "
            f"{sum(r['attrs'].get('records', 0) for r in commits)} records, "
            f"{sum(r['attrs'].get('bytes', 0) for r in commits)} B, "
            f"{1e3 * sum(seconds):.1f} ms "
            f"(median {1e3 * seconds[len(seconds) // 2]:.2f} ms per commit)"
        )
    return "\n".join(lines)
