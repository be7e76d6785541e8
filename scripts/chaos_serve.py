#!/usr/bin/env python
"""Chaos harness for the concurrent solver service.

Boots a real ``repro serve`` process on a unix socket with a worker pool
and fault injection enabled (``REPRO_SERVE_CHAOS=1``), then drives N
concurrent clients at it.  One third of the clients carry a
worker-**crash** request, one third a **wedge** request (a worker that
sleeps past the request deadline), one third a volley of **malformed /
poisoned** lines (garbage JSON, NaN right-hand side, wrong-length RHS,
an RHS over the admission payload budget) — every client *also* sends
well-formed solve requests in the same batch, because the point under
test is isolation: injected faults must take down only their own
request.

Asserted invariants:

1. the server survives every fault and answers a clean shutdown
   (exit code 0);
2. **every** well-formed request reaches a terminal response — ok,
   converged, and with a solution digest **bit-identical** to an
   in-process serial replay of the same request;
3. every injected fault gets the *classified* structured answer:
   crash → ``worker_crash``, wedge → ``request_timeout``, poisoned
   lines → immediate error answers (``poisoned_payload`` where the
   admission layer is the one refusing);
4. the admission/quarantine counters in ``{"cmd": "stats"}`` reflect
   the faults;
5. **kill -9 mid-flight**: a server killed while a batch is being solved
   (its requests already in the job log, its results not yet) gives up
   the journal directory's lock with its life, and a second server
   started with ``--resume`` on the same directory finishes every
   journaled job; the log then holds, for each, a result with the serial
   replay's digest.

The pool's workers are forked processes.  ``--quick`` (CI tier: fewer
clients, shorter wedges) or the full sweep (``--clients`` clients).
Exits nonzero listing every violated invariant.

Usage::

    PYTHONPATH=src python scripts/chaos_serve.py --quick
    PYTHONPATH=src python scripts/chaos_serve.py --clients 9
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

PENALTIES = (1e4, 2e4, 4e4)
SCALE = 0.25
WEDGE_DEADLINE_S = 1.0
PAYLOAD_BUDGET = 2048  # bytes; a full-length explicit RHS (~2.4 KB) is over


def start_server(sock_path: str, journal_dir: str, workers: int,
                 extra: tuple[str, ...] = ()) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_SERVE_CHAOS"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--socket", sock_path,
         "--workers", str(workers),
         "--journal-dir", journal_dir,
         "--default-deadline", "60",
         "--max-payload-bytes", str(PAYLOAD_BUDGET),
         "--write-timeout", "10", *extra],
        env=env, cwd=str(ROOT),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.time() + 60
    while time.time() < deadline:
        if os.path.exists(sock_path):
            return proc
        if proc.poll() is not None:
            raise RuntimeError(
                f"server died during startup: {proc.stderr.read()}"
            )
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("server socket never appeared")


def talk(sock_path: str, lines: list[str], timeout_s: float = 120.0) -> list[dict]:
    """One connection: send all lines + flush, read every answer line."""
    c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    c.settimeout(timeout_s)
    c.connect(sock_path)
    c.sendall(("\n".join(lines) + "\n\n").encode("utf-8"))
    c.shutdown(socket.SHUT_WR)
    data = b""
    while True:
        chunk = c.recv(1 << 16)
        if not chunk:
            break
        data += chunk
    c.close()
    return [json.loads(ln) for ln in data.decode("utf-8").splitlines() if ln.strip()]


def well_formed(cid: int, k: int) -> dict:
    return {
        "id": f"c{cid}-w{k}", "model": "block", "scale": SCALE,
        "penalty": PENALTIES[(cid + k) % len(PENALTIES)], "precond": "sbbic0",
    }


def client_lines(cid: int, solves_per_client: int, wedge_s: float) -> list[str]:
    """A client's full volley: well-formed work + its flavor of chaos."""
    lines = [json.dumps(well_formed(cid, k)) for k in range(solves_per_client)]
    flavor = cid % 3
    if flavor == 0:  # a request whose worker dies holding it
        lines.append(json.dumps({
            "id": f"c{cid}-crash", "scale": SCALE, "penalty": 3e4,
            "chaos": {"kind": "crash"},
        }))
    elif flavor == 1:  # a request whose worker wedges past its deadline
        lines.append(json.dumps({
            "id": f"c{cid}-wedge", "scale": SCALE, "penalty": 5e4,
            "deadline_s": WEDGE_DEADLINE_S,
            "chaos": {"kind": "wedge", "seconds": wedge_s},
        }))
    else:  # poisoned / malformed payloads, answered without solving
        ndof = 297  # block model at scale 0.25
        lines.append("{this is not json")
        lines.append(json.dumps({
            "id": f"c{cid}-nan", "scale": SCALE,
            "rhs": [float("nan")] * 5,
        }))  # json.dumps emits NaN; the protocol layer must refuse it
        lines.append(json.dumps({
            "id": f"c{cid}-shape", "scale": SCALE, "rhs": [1.0] * 5,
        }))
        lines.append(json.dumps({
            "id": f"c{cid}-big", "scale": SCALE, "rhs": [1.0] * ndof,
        }))  # finite and well-shaped, but over the admission byte budget
    return lines


def serial_reference() -> dict[float, str]:
    """Bit-identity oracle: solve each distinct operator serially,
    in-process, on a cold session."""
    from repro.serve.protocol import SolveRequest
    from repro.serve.session import SolverSession

    session = SolverSession()
    ref: dict[float, str] = {}
    for pen in sorted(set(PENALTIES)):
        resp = session.solve(SolveRequest(
            job_id=f"ref-{pen:g}", model="block", scale=SCALE,
            penalty=pen, precond="sbbic0",
        ))
        assert resp.ok and resp.converged, f"reference solve failed: {resp}"
        ref[pen] = resp.x_sha256
    return ref


def run_pass(clients: int, solves_per_client: int,
             wedge_s: float, ref: dict[float, str]) -> list[str]:
    """One server lifetime under chaos; returns invariant violations."""
    fails: list[str] = []
    tmp = tempfile.mkdtemp(prefix="chaos-")
    sock_path = os.path.join(tmp, "serve.sock")
    proc = start_server(sock_path, os.path.join(tmp, "journal"), workers=4)
    results: list[list[dict] | Exception] = [None] * clients  # type: ignore

    def drive(cid: int) -> None:
        try:
            results[cid] = talk(
                sock_path, client_lines(cid, solves_per_client, wedge_s)
            )
        except Exception as exc:  # noqa: BLE001 - recorded as a failure
            results[cid] = exc

    threads = [
        threading.Thread(target=drive, args=(cid,), name=f"client-{cid}")
        for cid in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180)

    for cid, res in enumerate(results):
        if isinstance(res, Exception):
            fails.append(f"client {cid} died: {type(res).__name__}: {res}")
            continue
        if res is None:
            fails.append(f"client {cid} never completed")
            continue
        by_id = {r["id"]: r for r in res if isinstance(r, dict) and "id" in r}
        anon = [r for r in res if not (isinstance(r, dict) and "id" in r)]
        for k in range(solves_per_client):
            jid = f"c{cid}-w{k}"
            r = by_id.get(jid)
            if r is None:
                fails.append(f"well-formed {jid} got no terminal response")
                continue
            if not (r.get("ok") and r.get("converged")):
                fails.append(f"well-formed {jid} did not converge: {r}")
                continue
            pen = PENALTIES[(cid + k) % len(PENALTIES)]
            if r.get("x_sha256") != ref[pen]:
                fails.append(
                    f"{jid} digest {r.get('x_sha256', '')[:12]} != "
                    f"serial replay {ref[pen][:12]} — NOT bit-identical"
                )
        flavor = cid % 3
        if flavor == 0:
            r = by_id.get(f"c{cid}-crash")
            if r is None or r.get("reason") != "worker_crash":
                fails.append(f"crash request misclassified: {r}")
        elif flavor == 1:
            r = by_id.get(f"c{cid}-wedge")
            if r is None or r.get("reason") != "request_timeout":
                fails.append(f"wedge request misclassified: {r}")
        else:
            if not any("invalid JSON" in str(r.get("error", "")) for r in anon):
                fails.append("garbage JSON line was not answered")
            r = by_id.get(f"c{cid}-nan")
            if r is None or r.get("ok") or "non-finite" not in str(r.get("error", "")):
                fails.append(f"NaN rhs not refused: {r}")
            r = by_id.get(f"c{cid}-shape")
            if r is None or r.get("ok") or r.get("reason") != "poisoned_payload":
                fails.append(f"wrong-length rhs not refused: {r}")
            r = by_id.get(f"c{cid}-big")
            if r is None or r.get("ok") or r.get("reason") != "poisoned_payload":
                fails.append(f"oversized rhs not refused: {r}")

    # Counters + clean shutdown on a fresh connection.
    try:
        out = talk(sock_path, [json.dumps({"cmd": "stats"}),
                               json.dumps({"cmd": "shutdown"})])
        stats = next(r["stats"] for r in out if r.get("cmd") == "stats")
        adm = stats.get("admission", {})
        n_crash = sum(1 for c in range(clients) if c % 3 == 0)
        n_wedge = sum(1 for c in range(clients) if c % 3 == 1)
        if adm.get("quarantined", 0) < n_crash + n_wedge:
            fails.append(
                f"quarantined={adm.get('quarantined')} < "
                f"{n_crash + n_wedge} injected worker faults"
            )
        if n_wedge and not adm.get("rejected", {}).get("request_timeout") \
           and not stats.get("pool", {}).get("timeouts"):
            fails.append(f"no timeout recorded anywhere: {adm}")
        pool_stats = stats.get("pool", {})
        if n_crash and pool_stats.get("crashes", 0) < n_crash:
            fails.append(
                f"pool crashes={pool_stats.get('crashes')} < {n_crash}"
            )
    except Exception as exc:  # noqa: BLE001
        fails.append(f"stats/shutdown failed: {type(exc).__name__}: {exc}")

    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        fails.append("server did not exit after shutdown")
    else:
        if proc.returncode != 0:
            fails.append(
                f"server exit code {proc.returncode}: "
                f"{proc.stderr.read()[-800:]}"
            )
    return fails


def run_kill_pass(solves: int, ref: dict[float, str]) -> list[str]:
    """kill -9 between the request commit and the result commit, then
    ``--resume``; returns invariant violations."""
    fails: list[str] = []
    tmp = tempfile.mkdtemp(prefix="chaos-kill-")
    journal = os.path.join(tmp, "journal")
    log_path = os.path.join(journal, "jobs.log")
    batch = [well_formed(0, k) for k in range(solves)]
    # one slow request holds the batch in flight while the rest are solved
    batch.append({"id": "c0-slow", "scale": SCALE, "penalty": PENALTIES[0],
                  "chaos": {"kind": "wedge", "seconds": 1.5}})
    first = start_server(os.path.join(tmp, "a.sock"), journal, workers=2)
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        client.connect(os.path.join(tmp, "a.sock"))
        client.sendall(("\n".join(json.dumps(r) for r in batch) + "\n\n").encode())
        deadline = time.time() + 60
        while time.time() < deadline and not (
                os.path.exists(log_path) and os.path.getsize(log_path) > 0):
            time.sleep(0.01)
        time.sleep(0.3)  # requests durable, workers busy, no result on record
        first.kill()
        first.wait(timeout=30)
    finally:
        client.close()
    if not os.path.exists(log_path) or os.path.getsize(log_path) == 0:
        return ["kill leg: the batch was never journaled"]

    second = start_server(os.path.join(tmp, "b.sock"), journal, workers=2,
                          extra=("--resume",))
    try:
        out = talk(os.path.join(tmp, "b.sock"),
                   [json.dumps({"cmd": "stats"}), json.dumps({"cmd": "shutdown"})])
        stats = next(r["stats"] for r in out if r.get("cmd") == "stats")
        journal_stats = stats.get("journal", {})
        if journal_stats.get("records") != 2 * len(batch):
            fails.append(f"kill leg: log holds {journal_stats.get('records')} "
                         f"records, expected {2 * len(batch)}: {journal_stats}")
        print(f"chaos_serve:   resumed {len(batch)} in-flight job(s); journal {journal_stats}",
              flush=True)
        second.wait(timeout=60)
        if second.returncode != 0:
            fails.append(f"kill leg: resumed server exit code "
                         f"{second.returncode}: {second.stderr.read()[-800:]}")
        from repro.io.joblog import JobLog

        log = JobLog(journal)  # the clean exit released the lock too
        try:
            for request in batch:
                job_id = request["id"]
                answer = log.read("res", job_id)[1]["response"] if log.has("res", job_id) else None
                if answer is None or not (answer["ok"] and answer["converged"]):
                    fails.append(f"kill leg: {job_id} not recovered: {answer}")
                elif answer["x_sha256"] != ref[request["penalty"]]:
                    fails.append(f"kill leg: {job_id} digest differs from "
                                 "the serial replay — NOT bit-identical")
        finally:
            log.close()
    except Exception as exc:  # noqa: BLE001
        fails.append(f"kill leg failed: {type(exc).__name__}: {exc}; "
                     f"server said: {second.stderr.read()[-800:] if second.poll() is not None else ''}")
    finally:
        if second.poll() is None:
            second.kill()
            second.wait()
    return fails


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI tier: 4 clients, short wedges")
    ap.add_argument("--clients", type=int, default=8,
                    help="concurrent clients (full sweep; >= 8 for the "
                    "acceptance sweep)")
    ap.add_argument("--solves-per-client", type=int, default=3)
    args = ap.parse_args()

    clients = 4 if args.quick else max(args.clients, 3)
    wedge_s = 3.0 if args.quick else 6.0

    t0 = time.time()
    print(f"chaos_serve: serial reference replay (scale {SCALE}) ...", flush=True)
    ref = serial_reference()

    print(
        f"chaos_serve: {clients} clients x {args.solves_per_client} solves "
        f"+ faults ...", flush=True,
    )
    fails = run_pass(clients, args.solves_per_client, wedge_s, ref)
    print("chaos_serve: kill -9 mid-flight + --resume ...", flush=True)
    fails += run_kill_pass(args.solves_per_client, ref)

    wall = time.time() - t0
    if fails:
        print(f"\nchaos_serve: {len(fails)} invariant violation(s) in {wall:.1f}s:")
        for f in fails:
            print(f"  FAIL {f}")
        return 1
    n_well = clients * args.solves_per_client
    print(
        f"chaos_serve: PASS in {wall:.1f}s — {n_well} well-formed requests "
        f"all terminal + bit-identical to serial replay; every injected "
        f"crash/wedge/poison isolated and classified; kill -9 mid-flight "
        "resumed from the job log"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
