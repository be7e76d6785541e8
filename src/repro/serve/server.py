"""Service front ends: JSONL over stdio, a unix socket, or one-shot files.

No third-party dependencies — the wire is newline-delimited JSON over
whatever byte stream is at hand.  Batching (and therefore multi-RHS
coalescing) is explicit and deterministic: requests accumulate until a
**blank line** or end-of-stream, then the whole batch is journaled,
grouped and solved together, and the responses are written back in
submission order.  A client that wants coalescing writes its requests in
one burst and follows with a blank line; a client that wants solo solves
flushes after every line.

The socket server is **multi-connection**: one handler thread per
client, up to ``max_connections`` (excess connects are answered with a
structured ``overloaded`` line and closed).  Each connection flushes its
*own* batches — ``queue.process(batch)`` claims only that connection's
jobs, so concurrent clients never steal each other's work, and the
worker pool (when attached to the queue) overlaps their groups.  A
misbehaving client is contained, never fatal:

- a line over ``max_line_bytes`` gets an error answer and the connection
  is dropped (framing can no longer be trusted);
- a client that stops draining its socket trips the per-write
  ``write_timeout_s`` and is disconnected, with a ``slow_client``
  quarantine record — a worker is never held hostage by a dead reader;
- malformed JSON / protocol violations get an immediate error line and
  the connection keeps serving.

Control lines (a JSON object with a ``cmd`` key) ride the same stream:
``{"cmd": "stats"}`` reports queue/cache/session counters and
``{"cmd": "shutdown"}`` stops a socket server after acknowledging.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
from pathlib import Path
from typing import Any, TextIO

from repro.serve.admission import QuarantineRecord
from repro.serve.protocol import ProtocolError, SolveRequest
from repro.serve.queue import Job, JobQueue

__all__ = ["run_batch", "serve_socket", "serve_stdio"]


def _emit(out: TextIO, payload: dict[str, Any]) -> None:
    out.write(json.dumps(payload) + "\n")
    out.flush()


def _flush_batch(queue: JobQueue, batch: list[Job], out: TextIO) -> int:
    """Solve the accumulated batch and answer in submission order."""
    if not batch:
        return 0
    queue.process(batch)
    for job in batch:
        if job.response is not None:
            out.write(job.response.to_json_line() + "\n")
        else:  # defensive: process() always sets a response for pending jobs
            _emit(out, {"id": job.job_id, "ok": False, "error": "job was not processed"})
    out.flush()
    n = len(batch)
    batch.clear()
    return n


def _handle_line(queue: JobQueue, line: str, batch: list[Job], out: TextIO,
                 state: dict[str, int]) -> str:
    """Returns "continue", "flush", or "shutdown"; flushed-job counts
    accumulate in ``state["answered"]``."""
    stripped = line.strip()
    if not stripped:
        return "flush"
    try:
        obj = json.loads(stripped)
    except json.JSONDecodeError as exc:
        _emit(out, {"ok": False, "error": f"invalid JSON: {exc}"})
        return "continue"
    if isinstance(obj, dict) and "cmd" in obj:
        cmd = obj["cmd"]
        if cmd == "shutdown":
            state["answered"] += _flush_batch(queue, batch, out)
            _emit(out, {"ok": True, "cmd": "shutdown"})
            return "shutdown"
        if cmd == "stats":
            state["answered"] += _flush_batch(queue, batch, out)
            _emit(out, {"ok": True, "cmd": "stats", "stats": queue.stats()})
            return "continue"
        _emit(out, {"ok": False, "error": f"unknown cmd {cmd!r}"})
        return "continue"
    try:
        request = SolveRequest.from_dict(obj)
        batch.append(queue.submit(request))
    except ProtocolError as exc:
        payload = {"ok": False, "error": str(exc), "reason": "poisoned_payload"}
        if isinstance(obj, dict) and isinstance(obj.get("id"), str):
            payload["id"] = obj["id"]  # let the client match the refusal
        _emit(out, payload)
    return "continue"


def serve_stdio(queue: JobQueue, in_stream: TextIO | None = None,
                out_stream: TextIO | None = None) -> int:
    """Serve request lines from *in_stream* until EOF or shutdown.

    Returns the number of jobs answered.  Responses for a batch are
    written only at its flush boundary (blank line / EOF), so pipe
    clients should send a burst then a blank line.
    """
    ins = in_stream if in_stream is not None else sys.stdin
    out = out_stream if out_stream is not None else sys.stdout
    batch: list[Job] = []
    state = {"answered": 0}
    for line in ins:
        verdict = _handle_line(queue, line, batch, out, state)
        if verdict == "flush":
            state["answered"] += _flush_batch(queue, batch, out)
        elif verdict == "shutdown":
            return state["answered"]
    state["answered"] += _flush_batch(queue, batch, out)
    return state["answered"]


class _LineTooLong(Exception):
    def __init__(self, nbytes: int, cap: int) -> None:
        super().__init__(f"request line exceeds {cap} bytes (got >= {nbytes})")


class _ConnIO:
    """File-like shim over a socket: capped line reads, timed writes.

    Reads block indefinitely (an idle client costs nothing); each
    *write* runs under ``write_timeout_s`` so a client that stopped
    draining its buffer cannot wedge the handler thread — ``sendall``
    raises ``TimeoutError`` and the connection is dropped.
    """

    def __init__(self, conn: socket.socket, write_timeout_s: float,
                 max_line_bytes: int) -> None:
        self._conn = conn
        self._write_timeout_s = write_timeout_s
        self._max_line_bytes = max_line_bytes
        self._buf = b""
        self._eof = False

    def lines(self):
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                if nl > self._max_line_bytes:
                    # enforce the cap even when the whole line landed in
                    # one recv — the bound is a guarantee, not best-effort
                    raise _LineTooLong(nl, self._max_line_bytes)
                line = self._buf[:nl]
                self._buf = self._buf[nl + 1:]
                yield line.decode("utf-8", errors="replace")
                continue
            if self._eof:
                if self._buf:
                    tail, self._buf = self._buf, b""
                    yield tail.decode("utf-8", errors="replace")
                return
            if len(self._buf) > self._max_line_bytes:
                raise _LineTooLong(len(self._buf), self._max_line_bytes)
            chunk = self._conn.recv(1 << 16)
            if not chunk:
                self._eof = True
            else:
                self._buf += chunk

    def write(self, text: str) -> None:
        self._conn.settimeout(self._write_timeout_s)
        try:
            self._conn.sendall(text.encode("utf-8"))
        finally:
            self._conn.settimeout(None)

    def flush(self) -> None:  # _emit/_flush_batch expect a file-like API
        pass


def _quarantine(queue: JobQueue, job_id: str, reason: str, detail: str) -> None:
    if queue.admission is not None:
        queue.admission.quarantine(
            QuarantineRecord(job_id=job_id, reason=reason, detail=detail)
        )


def _serve_connection(
    queue: JobQueue, conn: socket.socket, cid: int,
    stop: threading.Event,
    totals: dict[str, int], totals_lock: threading.Lock,
    slots: threading.Semaphore,
    write_timeout_s: float, max_line_bytes: int,
) -> None:
    io = _ConnIO(conn, write_timeout_s, max_line_bytes)
    batch: list[Job] = []
    state = {"answered": 0}
    try:
        for line in io.lines():
            verdict = _handle_line(queue, line, batch, io, state)
            if verdict == "flush":
                state["answered"] += _flush_batch(queue, batch, io)
            elif verdict == "shutdown":
                stop.set()  # the accept loop polls this between accepts
                break
        else:
            state["answered"] += _flush_batch(queue, batch, io)
    except _LineTooLong as exc:
        _quarantine(queue, f"conn-{cid}", "poisoned_payload", str(exc))
        try:
            _emit(io, {"ok": False, "error": str(exc), "reason": "poisoned_payload"})
        except OSError:
            pass
    except (TimeoutError, socket.timeout) as exc:
        _quarantine(
            queue, f"conn-{cid}", "slow_client",
            f"write timed out after {write_timeout_s:g}s: {exc}",
        )
    except (BrokenPipeError, ConnectionResetError):
        pass  # client vanished mid-request; its jobs stay journaled/solved
    finally:
        # Whatever happened, this connection's accepted-but-unanswered
        # jobs still run to a terminal state (the chaos-harness promise):
        # solve them even if the answer has nowhere to go.
        if batch:
            try:
                queue.process(batch)
                batch.clear()
            except Exception:
                pass
        try:
            conn.close()
        except OSError:
            pass
        with totals_lock:
            totals["answered"] += state["answered"]
        slots.release()


def serve_socket(queue: JobQueue, socket_path: str | Path, *,
                 max_connections: int = 32,
                 write_timeout_s: float = 15.0,
                 max_line_bytes: int = 8 << 20) -> int:
    """Serve concurrent connections on a unix domain socket.

    Each connection is its own stream: blank line flushes a batch,
    client half-close flushes and ends the connection,
    ``{"cmd": "shutdown"}`` (from any client) stops the server after its
    in-flight connections wind down.  Returns jobs answered.
    """
    if max_connections < 1:
        raise ValueError(f"max_connections must be >= 1, got {max_connections}")
    socket_path = Path(socket_path)
    socket_path.unlink(missing_ok=True)
    # bound and listening under a temporary name first: the path appears
    # (atomically, by rename) only once a connect to it is accepted
    staging = socket_path.with_name(f".{socket_path.name}.{os.getpid()}")
    staging.unlink(missing_ok=True)
    srv = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    stop = threading.Event()
    totals = {"answered": 0}
    totals_lock = threading.Lock()
    slots = threading.Semaphore(max_connections)
    threads: list[threading.Thread] = []
    cid = 0
    try:
        srv.bind(str(staging))
        srv.listen(min(128, max_connections + 8))
        os.rename(staging, socket_path)
        # A blocked accept() is not reliably woken by closing the socket
        # from another thread, so poll the stop flag between short waits.
        srv.settimeout(0.25)
        while not stop.is_set():
            try:
                conn, _ = srv.accept()
            except (TimeoutError, socket.timeout):
                continue
            except OSError:
                break
            conn.settimeout(None)  # accepted sockets inherit the timeout
            cid += 1
            if not slots.acquire(blocking=False):
                try:
                    conn.settimeout(write_timeout_s)
                    conn.sendall((json.dumps({
                        "ok": False, "reason": "overloaded",
                        "error": f"server at its {max_connections}-connection bound",
                    }) + "\n").encode("utf-8"))
                except OSError:
                    pass
                finally:
                    conn.close()
                continue
            t = threading.Thread(
                target=_serve_connection,
                args=(queue, conn, cid, stop, totals, totals_lock,
                      slots, write_timeout_s, max_line_bytes),
                name=f"serve-conn-{cid}", daemon=True,
            )
            threads.append(t)
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        return totals["answered"]
    finally:
        srv.close()
        staging.unlink(missing_ok=True)
        socket_path.unlink(missing_ok=True)


def run_batch(queue: JobQueue, requests_path: str | Path,
              out_path: str | Path | None = None) -> list[Job]:
    """One-shot mode: read a JSONL request file, solve, write responses.

    The whole file is one batch (maximum coalescing).  Returns the jobs
    in file order; with *out_path*, also writes one response per line.
    """
    jobs: list[Job] = []
    text = Path(requests_path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            request = SolveRequest.from_json_line(line)
        except ProtocolError as exc:
            raise ProtocolError(f"{requests_path}:{lineno}: {exc}") from exc
        jobs.append(queue.submit(request))
    queue.process()
    if out_path is not None:
        with open(out_path, "w") as fh:
            for job in jobs:
                assert job.response is not None
                fh.write(job.response.to_json_line() + "\n")
    return jobs
