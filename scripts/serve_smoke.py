#!/usr/bin/env python
"""CI smoke test for the solver service: real server, mixed warm/cold load.

Starts ``python -m repro serve`` as a genuine subprocess and drives a
six-request script over stdio — four batches against two operator
families (block + swjapan), mixing cold builds, warm repeats, a
coalesced pair, and a penalty-change refactor — then asserts the
caching contract end to end:

- the **first** request per preconditioner key pays symbolic setup;
- **every later** request on that key runs **zero** symbolic setups
  (warm repeats additionally run zero numeric setups and report pure
  cache hits);
- same-batch requests sharing an operator are coalesced into one
  blocked solve;
- the job log took **two commits per batch** (requests before the
  solve, results after), whatever the batch held;
- the exported observability trace contains one ``serve.job`` span per
  request and one ``journal.commit`` span per commit.

The request script is written to the server's stdin in full and stdin
is closed before reading — responses flush at blank-line batch
boundaries, so this cannot deadlock on pipe buffers.  Run it under a
hard ``timeout`` in CI anyway: a hung server is the one failure this
process cannot observe from inside.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [--trace serve_smoke.jsonl]

Exit status 0 on success, 1 on any contract violation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SCALE = 0.25  # small models: the smoke must stay seconds, not minutes

BATCHES: list[list[dict]] = [
    # batch 1: cold build of the block-model operator
    [{"id": "cold-block", "model": "block", "scale": SCALE, "penalty": 1e4,
      "precond": "sbbic0", "rhs": "model"}],
    # batch 2: two warm repeats sharing the operator -> coalesced pair
    [{"id": "warm-block-1", "model": "block", "scale": SCALE, "penalty": 1e4,
      "precond": "sbbic0", "rhs": "model"},
     {"id": "warm-block-2", "model": "block", "scale": SCALE, "penalty": 1e4,
      "precond": "sbbic0", "rhs": {"seed": 7}}],
    # batch 3: penalty change (numeric-only refactor) + a cold second model
    [{"id": "refac-block", "model": "block", "scale": SCALE, "penalty": 2e4,
      "precond": "sbbic0", "rhs": "model"},
     {"id": "cold-swj", "model": "swjapan", "scale": SCALE, "penalty": 1e4,
      "precond": "bic0", "rhs": "model"}],
    # batch 4: warm repeat on the second model
    [{"id": "warm-swj", "model": "swjapan", "scale": SCALE, "penalty": 1e4,
      "precond": "bic0", "rhs": "model"}],
]

# requests that touch an already-seen (model, scale, precond) key: the
# symbolic factorization MUST come from cache from here on
WARM_SYMBOLIC = {"warm-block-1", "warm-block-2", "refac-block", "warm-swj"}
# pure repeats: same operator fingerprint, so numeric setup is skipped too
WARM_FULL = {"warm-block-1", "warm-block-2", "warm-swj"}


def build_script() -> str:
    lines = []
    for batch in BATCHES:
        lines.extend(json.dumps(req) for req in batch)
        lines.append("")  # blank line = flush boundary
    lines.append(json.dumps({"cmd": "stats"}))
    lines.append(json.dumps({"cmd": "shutdown"}))
    return "\n".join(lines) + "\n"


def check(responses: dict[str, dict], failures: list[str]) -> None:
    expected = {req["id"] for batch in BATCHES for req in batch}
    missing = expected - set(responses)
    if missing:
        failures.append(f"missing responses: {sorted(missing)}")
        return
    for job_id, resp in responses.items():
        if not (resp.get("ok") and resp.get("converged")):
            failures.append(f"{job_id}: not solved: {resp.get('error')}")
    if failures:
        return

    for job_id in WARM_SYMBOLIC:
        setups = responses[job_id]["setups"]
        if setups["symbolic"] != 0:
            failures.append(
                f"{job_id}: ran {setups['symbolic']} symbolic setup(s) on a "
                f"warm preconditioner key (setups {setups})"
            )
    for job_id in WARM_FULL:
        resp = responses[job_id]
        if resp["setups"]["numeric"] != 0:
            failures.append(
                f"{job_id}: warm repeat ran numeric setup ({resp['setups']})"
            )
        if resp["cache"] != {"structure": "hit", "factor": "hit"}:
            failures.append(f"{job_id}: expected pure cache hit, got {resp['cache']}")
    if responses["cold-block"]["setups"]["symbolic"] < 1:
        failures.append("cold-block: expected a cold symbolic setup")
    if responses["refac-block"]["cache"].get("factor") != "refactor":
        failures.append(
            f"refac-block: expected factor event 'refactor', "
            f"got {responses['refac-block']['cache']}"
        )
    for job_id in ("warm-block-1", "warm-block-2"):
        if responses[job_id]["coalesced"] != 2:
            failures.append(
                f"{job_id}: expected coalesced=2, got {responses[job_id]['coalesced']}"
            )


def check_trace(trace_path: Path, failures: list[str]) -> None:
    if not trace_path.exists():
        failures.append(f"trace file {trace_path} was not written")
        return
    jobs = [
        json.loads(line)
        for line in trace_path.read_text().splitlines()
        if line.strip()
    ]
    spans = [r for r in jobs if r.get("kind") == "span" and r.get("name") == "serve.job"]
    expected = sum(len(b) for b in BATCHES)
    if len(spans) != expected:
        failures.append(f"trace has {len(spans)} serve.job spans, expected {expected}")
    commits = [r for r in jobs if r.get("kind") == "span" and r.get("name") == "journal.commit"]
    if [c["attrs"]["records"] for c in commits] != [len(b) for b in BATCHES for _ in "ab"]:
        failures.append(
            "trace's journal.commit spans are not one request and one result "
            f"commit per batch: {[c['attrs'] for c in commits]}"
        )


def check_journal(journal: dict, failures: list[str]) -> None:
    requests = sum(len(b) for b in BATCHES)
    want = {"records": 2 * requests, "commits": 2 * len(BATCHES),
            "syncs": 2 * len(BATCHES) + 1,  # + the directory, once, at creation
            "torn_tail_records": 0}
    got = {k: journal.get(k) for k in want}
    if got != want:
        failures.append(f"journal census {got}, expected {want}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", type=Path, default=None,
                    help="keep the server's JSONL trace at this path")
    ap.add_argument("--timeout", type=float, default=300.0,
                    help="kill the server after this many seconds")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as td:
        trace_path = args.trace or Path(td) / "serve_smoke.jsonl"
        journal_dir = Path(td) / "journals"
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--journal-dir", str(journal_dir),
            "--trace", str(trace_path),
        ]
        print(f"starting server: {' '.join(cmd)}")
        try:
            proc = subprocess.run(
                cmd, input=build_script(), capture_output=True, text=True,
                cwd=REPO_ROOT, timeout=args.timeout,
                env={**__import__("os").environ,
                     "PYTHONPATH": str(REPO_ROOT / "src")},
            )
        except subprocess.TimeoutExpired:
            print(f"FAIL: server did not finish within {args.timeout:.0f} s")
            return 1

        responses: dict[str, dict] = {}
        stats_line = None
        for line in proc.stdout.splitlines():
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue  # CLI status chatter (e.g. "trace written to ...")
            if not isinstance(obj, dict):
                continue
            if obj.get("cmd") == "stats":
                stats_line = obj
            elif "id" in obj:
                responses[obj["id"]] = obj

        failures: list[str] = []
        if proc.returncode != 0:
            failures.append(
                f"server exited {proc.returncode}\n{proc.stderr[-2000:]}"
            )
        check(responses, failures)
        check_trace(trace_path, failures)
        if stats_line is None:
            failures.append("no stats response observed")
        else:
            check_journal(stats_line["stats"]["journal"], failures)

        for job_id in sorted(responses):
            r = responses[job_id]
            print(
                f"  {job_id:14s} ok={r.get('ok')} conv={r.get('converged')} "
                f"iters={r.get('iterations')} coal={r.get('coalesced')} "
                f"cache={r.get('cache')} setups={r.get('setups')}"
            )
        if stats_line is not None:
            caches = stats_line["stats"]["session"]["caches"]
            print(f"  caches: {json.dumps(caches)}")
            print(f"  journal: {json.dumps(stats_line['stats']['journal'])}")

        if failures:
            for f in failures:
                print(f"FAIL: {f}")
            return 1
        print(f"serve smoke OK: {len(responses)} requests, "
              f"warm keys ran zero symbolic setups")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
