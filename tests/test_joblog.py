"""The serve queue's append-only job log (`repro.io.joblog`).

What the log must keep of the file-per-record journal it replaced, and
what it adds:

- requests durable before their batch's first solve, results durable
  before ``process`` returns — in exactly **two syncs per call**, counted
  at the one function that syncs;
- a torn tail (a crash mid-append) is truncated away and its job solves
  again bit-identically; a bad record anywhere else is corruption and
  refuses to open;
- the index survives a reopen (one scan) and every read verifies the
  record's checksum;
- retention is exact in the index, amortised on disk, atomic, never
  touches an in-flight request, and bounds the queue's job table too;
- one writer per directory, released by ``close()`` and by process death.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.io.joblog as joblog_module
from repro.io import JournalError, encode_record, write_journal
from repro.io.joblog import JobLog
from repro.io.journal import HEADER_BYTES
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    JobQueue,
    ProtocolError,
    RetentionPolicy,
    SolveRequest,
    SolveResponse,
    SolverSession,
    WorkerPool,
)

SCALE = 0.25
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _req(**kw) -> SolveRequest:
    base = dict(model="block", scale=SCALE, penalty=1e4, precond="sbbic0")
    base.update(kw)
    return SolveRequest(**base)


def _entry(job_id: str, n: int = 4):
    return job_id, {"v": np.arange(n, dtype=np.float64)}, {"note": job_id}


def _filled(directory, n_jobs: int = 3) -> list[int]:
    """A closed log of *n_jobs* finished jobs; returns each record's end."""
    log = JobLog(directory)
    ends = []
    for i in range(n_jobs):
        for kind in ("req", "res"):
            log.commit(kind, [_entry(f"j{i}")])
            ends.append(log.stats()["bytes"])
    log.close()
    return ends


@pytest.fixture
def sync_calls(monkeypatch) -> list[int]:
    """Every call of the one function through which the log syncs."""
    calls: list[int] = []
    real = joblog_module._sync
    monkeypatch.setattr(joblog_module, "_sync", lambda fd: (calls.append(fd), real(fd)))
    return calls


class _StubSession:
    """Answers at once, with a vector that depends on the request only."""

    def __init__(self) -> None:
        self.batches: list[list[str]] = []

    def solve_batch(self, requests):
        self.batches.append([r.job_id for r in requests])
        out = []
        for r in requests:
            x = np.full(8, float(r.rhs["seed"]))
            out.append(SolveResponse(
                job_id=r.job_id, ok=True, converged=True, iterations=1,
                relative_residual=0.0, ndof=8, x=x,
                x_sha256=hashlib.sha256(x.tobytes()).hexdigest(),
            ))
        return out

    def stats(self) -> dict:
        return {}


# -- the log alone -------------------------------------------------------------


class TestLogFile:
    def test_commit_read_and_reopen_scan(self, tmp_path):
        log = JobLog(tmp_path)
        log.commit("req", [_entry("a"), _entry("b", n=7)])
        log.commit("res", [_entry("a")])
        arrays, meta = log.read("req", "b")
        assert arrays["v"].tolist() == list(range(7))
        assert meta == {"kind": "req", "job_id": "b", "note": "b"}
        before = log.stats()
        assert before["records"] == 3 and before["commits"] == 2
        assert before["bytes"] == before["live_bytes"] \
            == (tmp_path / "jobs.log").stat().st_size
        log.close()

        again = JobLog(tmp_path)
        assert again.job_ids() == ["a", "b"]
        assert [job_id for job_id, _ in again.finished()] == ["a"]
        assert again.has("res", "a") and not again.has("res", "b")
        assert again.read("req", "b")[0]["v"].tolist() == list(range(7))
        after = again.stats()
        assert (after["records"], after["bytes"]) == (3, before["bytes"])
        assert after["torn_tail_records"] == 0
        again.close()

    def test_rerecorded_id_supersedes_and_leaves_dead_bytes(self, tmp_path):
        log = JobLog(tmp_path)
        log.commit("req", [_entry("a", n=2)])
        log.commit("req", [_entry("a", n=5)])
        assert log.read("req", "a")[0]["v"].size == 5
        st = log.stats()
        assert st["records"] == 1 and st["live_bytes"] < st["bytes"]
        log.close()
        again = JobLog(tmp_path)  # the scan applies the same rule
        assert again.read("req", "a")[0]["v"].size == 5
        assert again.stats()["live_bytes"] == st["live_bytes"]
        again.close()

    def test_truncation_at_every_offset_of_the_last_record(self, tmp_path):
        ends = _filled(tmp_path / "whole")
        raw = (tmp_path / "whole" / "jobs.log").read_bytes()
        good = ends[-2]
        work = tmp_path / "cut"
        work.mkdir()
        for size in range(good + 1, len(raw)):
            (work / "jobs.log").write_bytes(raw[:size])
            log = JobLog(work)
            try:
                st = log.stats()
                assert st["torn_tail_records"] == 1, size
                assert st["records"] == 5 and st["bytes"] == good, size
                assert (work / "jobs.log").stat().st_size == good, size
                assert log.job_ids() == ["j0", "j1", "j2"]
                assert [j for j, _ in log.finished()] == ["j0", "j1"]  # j2 is in flight again
            finally:
                log.close()
        # cut exactly between records: nothing torn
        (work / "jobs.log").write_bytes(raw[:good])
        log = JobLog(work)
        assert log.stats()["torn_tail_records"] == 0
        # and the truncated log takes appends where the good records end
        log.commit("res", [_entry("j2")])
        assert log.read("res", "j2")[1]["note"] == "j2"
        log.close()

    @pytest.mark.parametrize("where", ["magic", "digest", "payload"])
    def test_flipped_byte_in_a_middle_record_is_corruption(self, tmp_path, where):
        ends = _filled(tmp_path)
        start = ends[1]  # third record of six
        offset = start + {"magic": 0, "digest": 12, "payload": HEADER_BYTES + 40}[where]
        raw = bytearray((tmp_path / "jobs.log").read_bytes())
        raw[offset] ^= 0x01
        (tmp_path / "jobs.log").write_bytes(bytes(raw))
        complaint = "magic" if where == "magic" else "checksum"
        with pytest.raises(JournalError, match=complaint):
            JobLog(tmp_path)
        # refused, not repaired: the file is as it was, and the lock let go
        assert (tmp_path / "jobs.log").read_bytes() == bytes(raw)
        with pytest.raises(JournalError, match=complaint):
            JobLog(tmp_path)

    def test_bad_final_record_is_a_torn_tail(self, tmp_path):
        ends = _filled(tmp_path)
        raw = bytearray((tmp_path / "jobs.log").read_bytes())
        raw[-1] ^= 0x01  # full length on disk, contents not: a crash mid-write
        (tmp_path / "jobs.log").write_bytes(bytes(raw))
        log = JobLog(tmp_path)
        assert log.stats()["torn_tail_records"] == 1
        assert log.stats()["bytes"] == ends[-2]
        log.close()

    def test_unknown_version_and_foreign_records_refused(self, tmp_path):
        _filled(tmp_path / "v")
        raw = bytearray((tmp_path / "v" / "jobs.log").read_bytes())
        raw[8] = 99  # version field of the first record
        (tmp_path / "v" / "jobs.log").write_bytes(bytes(raw))
        with pytest.raises(JournalError, match="version"):
            JobLog(tmp_path / "v")

        # a valid container record that no job log wrote (an ALM checkpoint)
        (tmp_path / "f").mkdir()
        (tmp_path / "f" / "jobs.log").write_bytes(encode_record({}, {"kind": "alm"}))
        with pytest.raises(JournalError, match="not a job log"):
            JobLog(tmp_path / "f")

    def test_old_layout_directory_refused(self, tmp_path):
        write_journal(tmp_path / "job-000001.req.jnl", {}, {"model": "block"})
        with pytest.raises(JournalError, match="layout before jobs.log"):
            JobQueue(session=_StubSession(), journal_dir=tmp_path)
        assert not (tmp_path / "jobs.log").exists()  # never half-read, never touched

    def test_read_verifies_the_checksum(self, tmp_path):
        log = JobLog(tmp_path)
        log.commit("req", [_entry("a")])
        with open(tmp_path / "jobs.log", "r+b") as fh:  # bit rot under an open log
            fh.seek(HEADER_BYTES + 40)
            byte = fh.read(1)
            fh.seek(HEADER_BYTES + 40)
            fh.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(JournalError, match="checksum"):
            log.read("req", "a")
        log.close()

    def test_drop_is_index_exact_and_rewrite_amortised(self, tmp_path, sync_calls):
        log = JobLog(tmp_path)
        for i in range(4):
            for kind in ("req", "res"):
                log.commit(kind, [_entry(f"j{i}")])
        log.commit("req", [_entry("inflight")])
        full = log.stats()["bytes"]

        log.drop(["j0"])  # gone from the index at once; 2 dead of 9 records: file kept
        assert not log.has("req", "j0") and not log.has("res", "j0")
        st = log.stats()
        assert (st["records"], st["bytes"], st["compactions"]) == (7, full, 0)
        assert st["live_bytes"] < full

        del sync_calls[:]
        log.drop(["j1", "j2"])  # 6 dead of 9: rewritten
        st = log.stats()
        assert st["compactions"] == 1 and st["records"] == 3
        assert st["bytes"] == st["live_bytes"] == (tmp_path / "jobs.log").stat().st_size
        assert st["compacted_bytes"] == full - st["bytes"]
        assert len(sync_calls) == 2  # the new file, then its directory
        # what was kept reads back from the new file, and appends go on
        assert log.read("res", "j3")[1]["note"] == "j3"
        assert log.job_ids() == ["inflight", "j3"]
        log.commit("res", [_entry("inflight")])
        log.close()
        again = JobLog(tmp_path)
        assert [j for j, _ in again.finished()] == ["j3", "inflight"]
        again.close()

    def test_rewrite_is_atomic(self, tmp_path, monkeypatch):
        _filled(tmp_path)
        before = (tmp_path / "jobs.log").read_bytes()
        log = JobLog(tmp_path)

        def exploding_replace(src, dst):
            raise OSError("simulated crash before the replace")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated"):
            log.drop(["j0", "j1"])
        monkeypatch.undo()
        assert (tmp_path / "jobs.log").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.lock", "jobs.log"]
        # the handle still serves the old file
        assert log.read("res", "j2")[1]["note"] == "j2"
        log.close()
        again = JobLog(tmp_path)
        assert again.stats()["records"] == 6  # a reopen sees every job again
        again.close()

    def test_directory_synced_when_the_log_is_created(self, tmp_path, sync_calls):
        JobLog(tmp_path / "fresh").close()
        assert len(sync_calls) == 1
        JobLog(tmp_path / "fresh").close()  # nothing new to make durable
        assert len(sync_calls) == 1


class TestOneWriter:
    def test_second_opener_refused_until_close(self, tmp_path):
        log = JobLog(tmp_path)
        with pytest.raises(JournalError, match=f"pid {os.getpid()}"):
            JobLog(tmp_path)
        log.close()
        log.close()  # idempotent
        JobLog(tmp_path).close()

    def test_queue_close_is_idempotent_and_rmtree_needs_no_close(self, tmp_path):
        queue = JobQueue(session=_StubSession(), journal_dir=tmp_path / "j")
        queue.submit(_req(job_id="a", rhs={"seed": 1}))
        queue.process()
        shutil.rmtree(tmp_path / "j")  # what the bench harness does
        assert not (tmp_path / "j").exists()
        queue.close()
        queue.close()
        JobQueue(session=_StubSession()).close()  # no journal: nothing to close

    def test_forked_child_does_not_keep_the_lock(self, tmp_path):
        log = JobLog(tmp_path)
        gate_r, gate_w = os.pipe()
        up_r, up_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # a respawned pool worker outliving its server
            os.close(gate_w)
            os.write(up_w, b"1")  # os.fork has returned: the at-fork hook has run
            os.read(gate_r, 1)
            os._exit(0)
        try:
            os.close(gate_r)
            assert os.read(up_r, 1) == b"1"
            log.close()
            JobLog(tmp_path).close()  # the child is alive and holds nothing
        finally:
            os.close(gate_w)
            os.waitpid(pid, 0)
            os.close(up_r)
            os.close(up_w)

    def test_lock_dies_with_its_holder_and_the_log_resumes(self, tmp_path):
        code = f"""
import sys, time
sys.path.insert(0, {SRC!r})
from repro.serve import JobQueue, SolveRequest
from repro.serve.queue import write_journal
q = JobQueue(journal_dir={str(tmp_path)!r})
jobs = [q.submit(SolveRequest(job_id=f"k{{i}}", model="block", scale={SCALE}, penalty=1e4,
                              rhs={{"seed": i}})) for i in range(2)]
write_journal(q._log, "req", jobs)
print("held", flush=True)
time.sleep(120)
"""
        holder = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
        try:
            assert holder.stdout.readline().strip() == "held"
            with pytest.raises(JournalError, match=f"pid {holder.pid}"):
                JobQueue(session=_StubSession(), journal_dir=tmp_path)
            holder.send_signal(signal.SIGKILL)
            holder.wait(timeout=30)
            queue = JobQueue(session=_StubSession(), journal_dir=tmp_path)
            recovered = queue.resume()
            assert [j.job_id for j in recovered] == ["k0", "k1"]
            assert all(j.state == "done" and j.response.resumed for j in recovered)
            queue.close()
        finally:
            holder.kill()
            holder.wait()
            holder.stdout.close()


# -- the queue on the log -------------------------------------------------------


class TestGroupCommit:
    def test_two_syncs_per_process_whatever_the_batch(self, tmp_path, monkeypatch):
        session = _StubSession()
        queue = JobQueue(session=session, journal_dir=tmp_path)
        order: list[str] = []
        real_sync = joblog_module._sync
        real_solve = session.solve_batch
        monkeypatch.setattr(joblog_module, "_sync", lambda fd: (order.append("sync"), real_sync(fd)))
        monkeypatch.setattr(
            session, "solve_batch", lambda reqs: (order.append("solve"), real_solve(reqs))[1])

        for width in (8, 1):
            del order[:]
            before = queue.stats()["journal"]
            batch = [queue.submit(_req(rhs={"seed": i})) for i in range(width)]
            queue.process(batch)
            after = queue.stats()["journal"]
            # requests durable, then the solve, then results durable
            assert order == ["sync", "solve", "sync"], width
            assert after["syncs"] - before["syncs"] == 2
            assert after["commits"] - before["commits"] == 2
            assert after["records"] - before["records"] == 2 * width
        queue.close()

    def test_resumed_requests_are_not_committed_twice(self, tmp_path, sync_calls):
        from repro.serve.queue import write_journal as queue_commit

        queue = JobQueue(session=_StubSession(), journal_dir=tmp_path)
        jobs = [queue.submit(_req(job_id=f"r{i}", rhs={"seed": i})) for i in range(3)]
        queue_commit(queue._log, "req", jobs)
        queue.close()
        queue = JobQueue(session=_StubSession(), journal_dir=tmp_path)
        del sync_calls[:]
        assert len(queue.resume()) == 3
        assert len(sync_calls) == 1  # the results only
        assert queue.stats()["journal"]["records"] == 6
        queue.close()

    def test_failed_commit_leaves_jobs_pending_and_the_log_clean(self, tmp_path, monkeypatch):
        session = _StubSession()
        queue = JobQueue(session=session, journal_dir=tmp_path)
        jobs = [queue.submit(_req(job_id=f"f{i}", rhs={"seed": i})) for i in range(2)]

        def failing_sync(fd):
            raise OSError("simulated sync failure")

        monkeypatch.setattr(joblog_module, "_sync", failing_sync)
        with pytest.raises(OSError, match="simulated"):
            queue.process()
        monkeypatch.undo()
        assert [j.state for j in jobs] == ["pending", "pending"]
        assert queue.depth() == 2 and session.batches == []  # nothing solved unjournaled
        assert queue.stats()["journal"]["records"] == 0
        queue.process()
        assert [j.state for j in jobs] == ["done", "done"]
        queue.close()
        # the bytes of the failed commit were overwritten, not kept twice
        again = JobLog(tmp_path)
        assert again.stats()["records"] == 4 and again.stats()["torn_tail_records"] == 0
        assert again.stats()["bytes"] == again.stats()["live_bytes"]
        again.close()


class TestReplay:
    def test_torn_result_resolves_bit_identically(self, tmp_path):
        session = SolverSession()
        queue = JobQueue(session=session, journal_dir=tmp_path / "whole")
        for i in range(3):
            queue.submit(_req(job_id=f"t{i}", rhs={"seed": i}))
            queue.process()
        reference = {f"t{i}": queue.job(f"t{i}").response.x_sha256 for i in range(3)}
        last_good = queue._log._index["res"]["t2"][0]  # where the last record starts
        queue.close()
        raw = (tmp_path / "whole" / "jobs.log").read_bytes()

        # inside the header, inside the payload, one byte short
        for n, size in enumerate((last_good + 7, (last_good + len(raw)) // 2, len(raw) - 1)):
            work = tmp_path / f"cut{n}"
            work.mkdir()
            (work / "jobs.log").write_bytes(raw[:size])
            queue = JobQueue(session=session, journal_dir=work)
            assert queue.stats()["journal"]["torn_tail_records"] == 1
            assert (work / "jobs.log").stat().st_size == last_good
            served = session.jobs_served
            recovered = {j.job_id: j.response for j in queue.resume()}
            assert session.jobs_served == served + 1  # only the torn job solved again
            assert {k: r.x_sha256 for k, r in recovered.items()} == reference
            queue.close()

    def test_retry_short_circuit_survives_reopen_and_checks_the_record(self, tmp_path):
        session = _StubSession()
        queue = JobQueue(session=session, journal_dir=tmp_path)
        first = queue.submit(_req(job_id="once", rhs={"seed": 3}, return_x=True))
        queue.process()
        queue.close()

        queue = JobQueue(session=session, journal_dir=tmp_path)
        again = queue.submit(_req(job_id="once", rhs={"seed": 3}, return_x=True))
        assert again.state == "done" and again.response.resumed
        assert again.response.x_sha256 == first.response.x_sha256
        assert np.array_equal(again.response.x, first.response.x)
        assert len(session.batches) == 1
        queue.close()

        queue = JobQueue(session=session, journal_dir=tmp_path)
        with pytest.raises(ProtocolError, match="different request"):
            queue.submit(_req(job_id="once", rhs={"seed": 4}))
        queue.close()

        # the recorded answer rots on disk: the retry is refused, not served
        queue = JobQueue(session=session, journal_dir=tmp_path)
        offset, nbytes = queue._log._index["res"]["once"]
        with open(tmp_path / "jobs.log", "r+b") as fh:
            fh.seek(offset + nbytes - 1)
            last = fh.read(1)
            fh.seek(offset + nbytes - 1)
            fh.write(bytes([last[0] ^ 0x01]))
        with pytest.raises(JournalError, match="checksum"):
            queue.submit(_req(job_id="once", rhs={"seed": 3}))
        assert queue.depth() == 0 and queue.job("once") is None
        queue.close()

    def test_auto_ids_skip_ids_an_earlier_life_journaled(self, tmp_path):
        queue = JobQueue(session=_StubSession(), journal_dir=tmp_path)
        first = queue.submit(_req(rhs={"seed": 1}))
        queue.process()
        assert first.job_id == "job-000001"
        queue.close()
        queue = JobQueue(session=_StubSession(), journal_dir=tmp_path)
        second = queue.submit(_req(rhs={"seed": 2}))  # a different request
        assert second.job_id == "job-000002" and second.state == "pending"
        queue.close()


class TestConcurrentCommits:
    def test_pooled_queue_under_six_threads_records_every_job_once(self, tmp_path):
        session = SolverSession()
        session.solve_batch([_req(job_id="warm")])
        pool = WorkerPool(session, workers=2)
        queue = JobQueue(session=session, journal_dir=tmp_path, pool=pool)
        threads_n, batches_n = 6, 20
        errors: list[BaseException] = []

        def client(t: int) -> None:
            try:
                for b in range(batches_n):
                    batch = [
                        queue.submit(_req(job_id=f"c{t}-b{b:02d}-{k}", rhs={"seed": (t + b + k) % 3}))
                        for k in range(2)
                    ]
                    done = queue.process(batch)
                    assert [j.state for j in done] == ["done", "done"]
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(t,)) for t in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more switches between a commit's steps
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        n_jobs = threads_n * batches_n * 2
        st = queue.stats()["journal"]
        assert st["records"] == 2 * n_jobs
        assert st["commits"] == 2 * threads_n * batches_n  # whole commits, two per batch
        assert st["bytes"] == st["live_bytes"]  # nothing recorded twice
        digests = {j: queue.job(j).response.x_sha256 for j in queue._log.job_ids()}
        queue.close()

        # an independent scan: every record decodes (checksum and all) ...
        log = JobLog(tmp_path)
        assert log.stats()["records"] == 2 * n_jobs and log.stats()["torn_tail_records"] == 0
        assert len(log.job_ids()) == len(log.finished()) == n_jobs
        # ... and holds the answer its job was given
        for job_id, sha in digests.items():
            assert log.read("res", job_id)[1]["response"]["x_sha256"] == sha
        log.close()


class TestBoundedTables:
    def test_depth_is_a_counter_not_a_scan(self):
        queue = JobQueue(
            session=_StubSession(),
            admission=AdmissionController(AdmissionPolicy(max_queue_depth=10_000)),
        )
        for start in range(0, 5000, 500):
            for i in range(start, start + 500):
                queue.submit(_req(job_id=f"d{i}", rhs={"seed": i % 7}))
            assert queue.depth() == 500
            queue.process()
            assert queue.depth() == 0
        waiting = [queue.submit(_req(job_id=f"w{i}", rhs={"seed": i})) for i in range(3)]
        recount = sum(1 for j in queue._jobs.values() if j.state in ("pending", "running"))
        assert queue.depth() == recount == 3
        assert queue.stats()["jobs"] == {
            "pending": 3, "running": 0, "done": 5000, "failed": 0, "rejected": 0,
        }

        class NoScan(dict):
            def _refuse(self, *a, **k):
                raise AssertionError("submit walked the job table")
            values = items = keys = __iter__ = _refuse

        table = queue._jobs
        queue._jobs = NoScan(table)
        job = queue.submit(_req(job_id="one-more", rhs={"seed": 1}))
        assert job.state == "pending" and queue.depth() == 4
        table[job.job_id] = job
        queue._jobs = table
        queue.process(waiting)
        assert queue.depth() == 1

    def test_admission_still_sees_the_depth(self):
        queue = JobQueue(
            session=_StubSession(),
            admission=AdmissionController(AdmissionPolicy(max_queue_depth=2)),
        )
        a, b, c = (queue.submit(_req(job_id=x, rhs={"seed": 1})) for x in "abc")
        assert (a.state, b.state, c.state) == ("pending", "pending", "rejected")
        assert c.response.reason == "overloaded" and queue.depth() == 2
        queue.process()
        assert queue.depth() == 0
        assert queue.submit(_req(job_id="d", rhs={"seed": 1})).state == "pending"

    def test_retention_bounds_the_job_table_and_a_dropped_id_solves_again(self, tmp_path):
        session = _StubSession()
        queue = JobQueue(session=session, journal_dir=tmp_path,
                         retention=RetentionPolicy(keep_last=2))
        for i in range(10):
            queue.submit(_req(job_id=f"m{i}", rhs={"seed": i}))
            queue.process()
        held = queue.submit(_req(job_id="held", rhs={"seed": 1}))  # in flight
        assert sorted(queue._jobs) == ["held", "m8", "m9"]
        assert queue.stats()["jobs"]["done"] == 10  # the tally is not the table
        assert queue.stats()["journal"]["records"] == 4

        solved = len(session.batches)
        again = queue.submit(_req(job_id="m0", rhs={"seed": 0}))  # dropped: a new job
        assert again.state == "pending"
        with pytest.raises(ProtocolError, match="duplicate"):
            queue.submit(_req(job_id="m9", rhs={"seed": 9}))  # kept: still known
        queue.process()
        assert again.state == "done" and not again.response.resumed
        assert len(session.batches) == solved + 1 and held.state == "done"
        queue.close()

    def test_without_retention_nothing_is_dropped(self, tmp_path):
        queue = JobQueue(session=_StubSession(), journal_dir=tmp_path)
        for i in range(5):
            queue.submit(_req(job_id=f"u{i}", rhs={"seed": i}))
            queue.process()
        assert len(queue._jobs) == 5 and queue.compact() == 0
        assert queue.stats()["journal"]["records"] == 10
        queue.close()

    def test_max_bytes_holds_on_disk_after_every_process(self, tmp_path):
        probe = JobQueue(session=_StubSession(), journal_dir=tmp_path / "probe")
        probe.submit(_req(job_id="p", rhs={"seed": 1}))
        probe.process()
        pair = probe.stats()["journal"]["bytes"]
        probe.close()

        budget = 6 * pair
        queue = JobQueue(session=_StubSession(), journal_dir=tmp_path / "q",
                         retention=RetentionPolicy(max_bytes=budget))
        sizes = []
        for i in range(40):
            queue.submit(_req(job_id=f"b{i:02d}", rhs={"seed": i}))
            queue.process()
            sizes.append((tmp_path / "q" / "jobs.log").stat().st_size)
        st = queue.stats()["journal"]
        assert max(sizes) <= budget
        # amortised: the file is copied once per half budget appended, not per batch
        assert 40 * pair / budget <= st["compactions"] <= 2 * 40 * pair / budget + 1
        assert st["records"] >= 2 * 2  # and retention keeps what fits, not nothing
        queue.close()
