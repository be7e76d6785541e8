"""Socket front end under hostile clients: malformed lines, oversized
frames, mid-request disconnects, concurrent connections, shutdown.

The server-side promise under test: a misbehaving client is *contained*
— its connection may be dropped, but the server keeps serving everyone
else, and every well-formed request it accepted still reaches a terminal
state (solved + journal-eligible) even if the answer has nowhere to go.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    JobQueue,
    SolveRequest,
    SolverSession,
)
from repro.serve.server import serve_socket

SCALE = 0.25


def _req_line(job_id: str, **kw) -> str:
    d = {"id": job_id, "model": "block", "scale": SCALE, "penalty": 1e4,
         "precond": "sbbic0", "rhs": "model"}
    d.update(kw)
    return json.dumps(d)


@pytest.fixture(scope="module")
def session() -> SolverSession:
    s = SolverSession()
    s.solve(SolveRequest(job_id="warm", model="block", scale=SCALE,
                         penalty=1e4, precond="sbbic0"))
    return s


class _Server:
    """serve_socket on a background thread + a shutdown-on-teardown."""

    def __init__(self, queue: JobQueue, path, **kw) -> None:
        self.queue = queue
        self.path = str(path)
        self.thread = threading.Thread(
            target=serve_socket, args=(queue, self.path), kwargs=kw,
            daemon=True,
        )
        self.thread.start()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.connect(self.path)
                return
            except OSError:
                time.sleep(0.01)
        raise RuntimeError("socket server did not come up")

    def stop(self) -> None:
        # retry: a shutdown connect can race a slot release on a server
        # with a tiny connection bound and be refused as overloaded
        deadline = time.monotonic() + 10.0
        while self.thread.is_alive() and time.monotonic() < deadline:
            try:
                out = talk(self.path, ['{"cmd": "shutdown"}'], timeout=5.0)
            except OSError:
                out = []
            if any(o.get("cmd") == "shutdown" for o in out):
                break
            time.sleep(0.05)
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive()


@pytest.fixture
def server(session, tmp_path):
    made: list[_Server] = []

    def make(**kw) -> _Server:
        queue = kw.pop("queue", None)
        if queue is None:
            queue = JobQueue(
                session=session,
                admission=AdmissionController(AdmissionPolicy()),
            )
        srv = _Server(queue, tmp_path / f"s{len(made)}.sock", **kw)
        made.append(srv)
        return srv

    yield make
    for srv in made:
        srv.stop()


def _recv_line(s: socket.socket) -> dict:
    buf = b""
    while b"\n" not in buf:
        chunk = s.recv(1 << 16)
        if not chunk:
            break
        buf += chunk
    return json.loads(buf.decode().splitlines()[0])


def talk(path: str, lines: list[str], timeout: float = 30.0) -> list[dict]:
    """One connection: send a burst + blank line, half-close, read to EOF."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(path)
        payload = "".join(line + "\n" for line in lines) + "\n"
        s.sendall(payload.encode())
        s.shutdown(socket.SHUT_WR)
        buf = b""
        while chunk := s.recv(1 << 16):
            buf += chunk
    return [json.loads(ln) for ln in buf.decode().splitlines() if ln.strip()]


class TestSocketErrorPaths:
    def test_malformed_json_answered_connection_keeps_serving(self, server):
        srv = server()
        out = talk(srv.path, ["{this is not json", _req_line("sock-ok")])
        assert len(out) == 2
        assert not out[0]["ok"] and "invalid JSON" in out[0]["error"]
        assert out[1]["id"] == "sock-ok" and out[1]["ok"] and out[1]["converged"]

    def test_protocol_violation_names_the_job(self, server):
        srv = server()
        out = talk(srv.path, [
            _req_line("sock-bad", model="warp-drive"),
            _req_line("sock-good"),
        ])
        by_id = {o.get("id"): o for o in out}
        assert not by_id["sock-bad"]["ok"]
        assert by_id["sock-bad"]["reason"] == "poisoned_payload"
        assert by_id["sock-good"]["ok"]

    def test_oversized_line_drops_connection_with_quarantine(self, server):
        srv = server(max_line_bytes=4096)
        big = _req_line("sock-big", rhs=[1.0] * 4096)
        out = talk(srv.path, [big])
        # either the error line arrived before the drop, or just EOF
        assert all(not o["ok"] for o in out)
        records = srv.queue.admission.stats()["quarantine_tail"]
        assert any(r["reason"] == "poisoned_payload" for r in records)
        # the server survives for the next client
        again = talk(srv.path, [_req_line("sock-after-big")])
        assert again[-1]["ok"]

    def test_disconnect_mid_request_still_reaches_terminal_state(self, server):
        srv = server()
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(srv.path)
            s.sendall((_req_line("sock-gone") + "\n").encode())
            # vanish without the blank line and without reading anything
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            job = srv.queue.job("sock-gone")
            if job is not None and job.state in ("done", "failed"):
                break
            time.sleep(0.05)
        job = srv.queue.job("sock-gone")
        assert job is not None and job.state == "done"
        assert job.response is not None and job.response.converged
        # and other clients were never disturbed
        out = talk(srv.path, [_req_line("sock-bystander")])
        assert out[-1]["ok"]

    def test_partial_line_then_disconnect_is_contained(self, server):
        srv = server()
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(srv.path)
            s.sendall(b'{"id": "sock-trunc", "mo')  # no newline, no close frame
        out = talk(srv.path, [_req_line("sock-next")])
        assert out[-1]["ok"]


class TestSocketConcurrency:
    def test_concurrent_clients_all_answered_correctly(self, server, session):
        srv = server()
        ref = session.solve(SolveRequest(
            job_id="sock-ref", model="block", scale=SCALE, penalty=1e4,
            precond="sbbic0", rhs={"seed": 7},
        ))
        results: dict[int, list[dict]] = {}
        errors: list[BaseException] = []

        def client(cid: int) -> None:
            try:
                results[cid] = talk(srv.path, [
                    _req_line(f"sock-c{cid}-{k}", rhs={"seed": 7})
                    for k in range(2)
                ])
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors
        for cid, out in results.items():
            assert len(out) == 2
            for o in out:
                assert o["ok"] and o["converged"]
                assert o["x_sha256"] == ref.x_sha256  # same seed, same answer

    def test_connection_bound_answers_overloaded(self, server, tmp_path):
        srv = server(max_connections=1)
        # grab the only slot; retry while the fixture's ready probe or a
        # just-refused predecessor still holds it
        holder = None
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            holder = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            holder.settimeout(10.0)
            holder.connect(srv.path)
            try:
                # a stats round-trip proves the holder owns a handler
                # thread and not an overloaded refusal
                holder.sendall(b'{"cmd": "stats"}\n')
                if _recv_line(holder).get("cmd") == "stats":
                    break
            except OSError:
                pass
            holder.close()
            holder = None
            time.sleep(0.05)
        assert holder is not None, "never claimed the only connection slot"
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.settimeout(10.0)
                s.connect(srv.path)
                buf = b""
                while chunk := s.recv(1 << 16):
                    buf += chunk
            refusal = json.loads(buf.decode().splitlines()[0])
            assert not refusal["ok"]
            assert refusal["reason"] == "overloaded"
        finally:
            holder.close()
        time.sleep(0.1)  # slot released: the next client is served again
        out = talk(srv.path, [_req_line("sock-after-bound")])
        assert out[-1]["ok"]


class TestSocketControl:
    def test_stats_command_reports_sections(self, server):
        srv = server()
        out = talk(srv.path, [_req_line("sock-st"), "", '{"cmd": "stats"}'])
        stats = next(o for o in out if o.get("cmd") == "stats")
        assert stats["ok"]
        assert "jobs" in stats["stats"] and "admission" in stats["stats"]

    def test_shutdown_stops_the_server(self, server):
        srv = server()
        out = talk(srv.path, ['{"cmd": "shutdown"}'])
        assert out[-1]["ok"] and out[-1]["cmd"] == "shutdown"
        srv.thread.join(timeout=10.0)
        assert not srv.thread.is_alive()

    def test_a_client_that_connects_once_the_path_exists_is_accepted(
        self, session, tmp_path, monkeypatch
    ):
        """The socket file appears only once the server listens: a client
        that connects the moment the path exists is never refused (no
        client-side retry), however long ``listen`` takes to come after
        ``bind``."""
        real = socket.socket

        class SlowListen(real):
            def listen(self, *args):
                time.sleep(0.05)
                return super().listen(*args)

        monkeypatch.setattr(socket, "socket", SlowListen)
        for k in range(3):
            path = tmp_path / f"race{k}.sock"
            queue = JobQueue(session=session, admission=AdmissionController(AdmissionPolicy()))
            thread = threading.Thread(target=serve_socket, args=(queue, str(path)), daemon=True)
            thread.start()
            deadline = time.monotonic() + 10.0
            while not path.exists():
                assert time.monotonic() < deadline, "the socket never appeared"
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.connect(str(path))  # ConnectionRefusedError before the fix
            out = talk(str(path), ['{"cmd": "shutdown"}'])
            assert out[-1]["cmd"] == "shutdown"
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(".")) == []
