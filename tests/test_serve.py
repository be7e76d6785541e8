"""Serve layer: workspace caching, coalescing queue, journaled recovery.

The acceptance properties of the serving tentpole live here:

- warm requests to a known fingerprint cause **zero** symbolic and zero
  numeric setups (asserted through each response's ``setups`` census);
- LRU caches account hits/misses/evictions exactly, in their
  ``stats()``;
- a server killed between journaling and solving resumes from the
  journal and returns bit-for-bit the answers of an uninterrupted run;
- completed jobs replay idempotently from their recorded result in the
  job log.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.serve import (
    JobQueue,
    LRUCache,
    ProtocolError,
    SolveRequest,
    SolverSession,
    run_batch,
    serve_stdio,
)

SCALE = 0.25  # smallest block model: fast enough for per-test sessions


def _req(**kw) -> SolveRequest:
    base = dict(model="block", scale=SCALE, penalty=1e6)
    base.update(kw)
    return SolveRequest(**base)


class TestLRUCache:
    def test_hit_miss_accounting(self):
        c = LRUCache(2)
        assert c.get("a") is None
        c.put("a", 1)
        assert c.get("a") == 1
        assert c.stats() == {
            "capacity": 2, "size": 1, "hits": 1, "misses": 1, "evictions": 0,
        }

    def test_eviction_order_and_census(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")  # refresh a: b is now LRU
        assert c.put("c", 3) == 1
        assert "b" not in c and "a" in c and "c" in c
        assert c.evictions == c.stats()["evictions"] == 1

    def test_put_existing_key_updates_without_evicting(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("a", 10)
        assert c.get("a") == 10
        assert c.evictions == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestProtocol:
    def test_round_trip(self):
        req = SolveRequest.from_json_line(
            '{"id": "j1", "model": "block", "scale": 0.5, "penalty": 1e4, '
            '"rhs": {"seed": 3}}'
        )
        assert req.job_id == "j1" and req.penalty == 1e4
        back = SolveRequest.from_dict(req.to_dict())
        assert back.to_dict() == req.to_dict()

    @pytest.mark.parametrize("line", [
        "not json",
        '{"model": "nope"}',
        '{"precond": "lu"}',
        '{"eps": -1}',
        '{"scale": 0}',
        '{"rhs": {"sneed": 1}}',
        '{"rhs": [[1, 2], [3, 4]]}',
        '{"unknown_field": 1}',
        '{"id": "bad/../name"}',
    ])
    def test_bad_requests_rejected(self, line):
        with pytest.raises(ProtocolError):
            SolveRequest.from_json_line(line)

    def test_response_hides_x_unless_requested(self):
        from repro.serve.protocol import SolveResponse

        r = SolveResponse(job_id="a", ok=True, x=np.ones(3), return_x=False)
        assert "x" not in r.to_dict()
        r.return_x = True
        assert r.to_dict()["x"] == [1.0, 1.0, 1.0]


class TestSessionCaching:
    def test_warm_request_zero_setups(self):
        sess = SolverSession(capacity=4)
        cold = sess.solve(_req())
        assert cold.ok and cold.converged
        assert cold.cache == {"structure": "miss", "factor": "build"}
        assert cold.setups["symbolic"] == 1 and cold.setups["numeric"] == 1

        warm = sess.solve(_req())
        assert warm.cache == {"structure": "hit", "factor": "hit"}
        assert warm.setups["symbolic"] == 0 and warm.setups["numeric"] == 0
        assert warm.fingerprint == cold.fingerprint
        assert warm.x_sha256 == cold.x_sha256

    def test_new_penalty_refactors_numeric_only(self):
        sess = SolverSession(capacity=4)
        sess.solve(_req(penalty=1e6))
        warm = sess.solve(_req(penalty=1e4))
        assert warm.cache == {"structure": "hit", "factor": "refactor"}
        assert warm.setups["symbolic"] == 0 and warm.setups["numeric"] == 1

    @staticmethod
    def _three_families_in_two_slots(sess: SolverSession) -> None:
        """sbbic0, bic0, sbbic0 (factor hit), bic1: the bic1 build evicts
        the bic0 factor and the sbbic0 symbolic pattern (each its tier's
        least recently used entry), leaving the bic0 pattern cached."""
        for precond in ("sbbic0", "bic0", "sbbic0", "bic1"):
            sess.solve(_req(precond=precond))

    def test_symbolic_cache_survives_factor_swap(self):
        """Cycling three preconditioners through a capacity-2 workspace
        evicts factors, but the symbolic cache still avoids pattern work
        for a family whose pattern outlived its factor."""
        sess = SolverSession(capacity=2)
        self._three_families_in_two_slots(sess)
        again = sess.solve(_req(precond="bic0"))
        assert again.cache["factor"] == "numeric"  # symbolic hit, factor miss
        assert again.setups == {"symbolic": 0, "numeric": 1, "evictions": 1}
        assert sess.workspace.factors.evictions >= 1

    def test_eviction_feeds_setup_census(self):
        sess = SolverSession(capacity=2)
        self._three_families_in_two_slots(sess)
        before = sess.stats()["caches"]["factors"]["evictions"]
        last = sess.solve(_req(precond="bic0"))
        assert last.setups["evictions"] == 1  # the sbbic0 factor
        # the bic1 build evicted the bic0 factor, this solve the sbbic0 one
        assert before == 1
        assert sess.stats()["caches"]["factors"]["evictions"] == 2

    def test_warm_equals_cold_bitwise(self):
        """The refactor path must reproduce a cold build bit-for-bit —
        the property crash-resume determinism rests on."""
        warm_sess = SolverSession(capacity=4)
        warm_sess.solve(_req(penalty=1e4))
        warm = warm_sess.solve(_req(penalty=1e6))  # refactor path
        cold = SolverSession(capacity=4).solve(_req(penalty=1e6))  # build path
        assert warm.cache["factor"] == "refactor"
        assert cold.cache["factor"] == "build"
        assert warm.x_sha256 == cold.x_sha256

    def test_explicit_rhs_and_seed(self):
        sess = SolverSession(capacity=4)
        r1 = sess.solve(_req(rhs={"seed": 7}, return_x=True))
        assert r1.ok and r1.x is not None
        r2 = sess.solve(_req(rhs=list(np.asarray(r1.x) * 0 + 1.0), return_x=True))
        assert r2.ok
        bad = sess.solve(_req(rhs=[1.0, 2.0]))
        assert not bad.ok and "DOF" in bad.error

    def test_batch_coalesces_and_dedups(self):
        sess = SolverSession(capacity=4)
        reqs = [
            _req(job_id="a", rhs={"seed": 1}),
            _req(job_id="b", rhs={"seed": 2}),
            _req(job_id="dup", rhs={"seed": 1}),
            _req(job_id="other", penalty=1e4),
        ]
        rs = {r.job_id: r for r in sess.solve_batch(reqs)}
        assert rs["a"].coalesced == 3 and rs["other"].coalesced == 1
        assert rs["a"].x_sha256 == rs["dup"].x_sha256
        assert rs["a"].fingerprint != rs["other"].fingerprint

    def test_batch_order_preserved(self):
        sess = SolverSession(capacity=4)
        reqs = [
            _req(job_id="z9", penalty=1e4),
            _req(job_id="a1", penalty=1e6),
            _req(job_id="m5", penalty=1e4),
        ]
        out = sess.solve_batch(reqs)
        assert [r.job_id for r in out] == ["z9", "a1", "m5"]


class TestQueue:
    def test_journal_and_idempotent_retry(self, tmp_path):
        q = JobQueue(journal_dir=tmp_path)
        job = q.submit(_req(job_id="j1"))
        q.process()
        first = job.response
        assert (tmp_path / "jobs.log").exists()
        journal = q.stats()["journal"]
        assert journal["records"] == 2 and journal["commits"] == 2
        q.close()

        # a fresh queue (new process in real life) replays from the log,
        # whose index it rebuilt by scanning the file
        q2 = JobQueue(journal_dir=tmp_path)
        assert q2.stats()["journal"]["records"] == 2
        job2 = q2.submit(_req(job_id="j1"))
        assert job2.state == "done" and job2.response.resumed
        assert job2.response.x_sha256 == first.x_sha256
        # ... without solving or writing anything
        assert q2.session.jobs_served == 0
        assert q2.stats()["journal"]["commits"] == 0
        q2.close()

    def test_conflicting_retry_rejected(self, tmp_path):
        q = JobQueue(journal_dir=tmp_path)
        q.submit(_req(job_id="j1", penalty=1e6))
        q.process()
        q.close()
        q2 = JobQueue(journal_dir=tmp_path)
        with pytest.raises(ProtocolError, match="different request"):
            q2.submit(_req(job_id="j1", penalty=1e4))
        assert q2.depth() == 0 and q2.job("j1") is None  # the refusal left no trace
        q2.close()

    def test_duplicate_live_id_rejected(self):
        q = JobQueue()
        q.submit(_req(job_id="j1"))
        with pytest.raises(ProtocolError, match="duplicate"):
            q.submit(_req(job_id="j1"))

    def test_resume_recovers_unsolved_requests(self, tmp_path):
        # Simulate a crash after journaling: commit the request records
        # by hand (through a queue that never processes) and resume fresh.
        from repro.serve.queue import write_journal

        q = JobQueue(journal_dir=tmp_path)
        jobs = [q.submit(_req(job_id=f"j{i}", rhs={"seed": i})) for i in range(3)]
        write_journal(q._log, "req", jobs)
        q.close()

        q2 = JobQueue(journal_dir=tmp_path)
        recovered = q2.resume()
        assert [j.job_id for j in recovered] == ["j0", "j1", "j2"]
        assert all(j.state == "done" for j in recovered)
        assert all(j.response.resumed for j in recovered)
        # one result commit; the requests were already on record
        assert q2.stats()["journal"]["commits"] == 1
        q2.close()

    def test_failed_request_fails_only_its_job(self):
        q = JobQueue()
        good = q.submit(_req(job_id="good"))
        bad = q.submit(_req(job_id="bad", rhs=[1.0]))
        q.process()
        assert good.state == "done"
        assert bad.state == "failed" and "DOF" in bad.response.error


    def test_the_table_keeps_jobs_in_flight_and_a_bounded_tail(self, tmp_path, monkeypatch):
        """After K rounds the job table holds at most RECENT_FINISHED
        finished jobs; a retry of an evicted id is answered from the
        journal (not solved again), the same answer to the bit."""
        from repro.serve import queue as queue_module

        monkeypatch.setattr(queue_module, "RECENT_FINISHED", 4)
        q = JobQueue(journal_dir=tmp_path)
        first = None
        for rnd in range(5):
            jobs = [q.submit(_req(job_id=f"k{rnd}-{i}", rhs={"seed": i})) for i in range(3)]
            q.process()
            first = first or jobs[0]
            assert len(q._jobs) <= 4
        assert q.job("k0-0") is None and q.job("k4-2") is not None
        served = q.session.jobs_served
        retry = q.submit(_req(job_id="k0-0", rhs={"seed": 0}))
        assert retry.state == "done" and retry.response.resumed
        assert retry.response.x_sha256 == first.response.x_sha256
        assert q.session.jobs_served == served
        assert q.stats()["jobs"]["done"] == 16
        q.close()


class TestCrashResume:
    """Real process death between journal and solve; resume must match an
    uninterrupted run bit-for-bit."""

    REQS = [
        {"id": f"j{i}", "model": "block", "scale": SCALE,
         "penalty": 1e6, "rhs": {"seed": i % 2}}
        for i in range(4)
    ] + [
        # decided by the cost model at solve time, so a replay must
        # decide it again the same way
        {"id": "j4", "model": "block", "scale": SCALE, "penalty": 1e4,
         "precond": "auto", "rhs": {"seed": 5}},
    ]

    def _run(self, tmp_path, jdir, crash=None):
        code = f"""
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / 'src')!r})
from repro.serve import JobQueue, SolveRequest
q = JobQueue(journal_dir={str(jdir)!r})
for d in {self.REQS!r}:
    q.submit(SolveRequest.from_dict(d))
q.process()
for d in {self.REQS!r}:
    j = q.job(d["id"])
    print(j.job_id, j.response.x_sha256)
"""
        env = dict(os.environ)
        env.pop("REPRO_SERVE_CRASH", None)
        if crash:
            env["REPRO_SERVE_CRASH"] = crash
        return subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, timeout=120,
        )

    def test_crash_after_journal_then_resume_bitwise(self, tmp_path):
        ref = self._run(tmp_path, tmp_path / "ref")
        assert ref.returncode == 0, ref.stderr
        reference = dict(l.split() for l in ref.stdout.strip().splitlines())

        crashed = self._run(tmp_path, tmp_path / "crash", crash="after-journal")
        assert crashed.returncode == 17  # os._exit(17) in the crash hook
        jdir = tmp_path / "crash"

        q = JobQueue(journal_dir=jdir)
        # the dead server's flock died with it; its one request commit is
        # all the log holds
        assert q._log.job_ids() == sorted(reference)
        assert q._log.finished() == []
        recovered = {j.job_id: j for j in q.resume()}
        assert set(recovered) == set(reference)
        for job_id, sha in reference.items():
            assert recovered[job_id].response.x_sha256 == sha
        q.close()

    def test_crash_before_result_then_resume_bitwise(self, tmp_path):
        ref = self._run(tmp_path, tmp_path / "ref2")
        reference = dict(l.split() for l in ref.stdout.strip().splitlines())

        crashed = self._run(tmp_path, tmp_path / "crash2", crash="before-result")
        assert crashed.returncode == 17
        q = JobQueue(journal_dir=tmp_path / "crash2")
        recovered = {j.job_id: j for j in q.resume()}
        for job_id, sha in reference.items():
            assert recovered[job_id].response.x_sha256 == sha
        q.close()


class TestServerFrontends:
    def test_stdio_blank_line_flush(self, tmp_path):
        import io

        lines = [
            json.dumps({"id": "a", "model": "block", "scale": SCALE, "penalty": 1e6}),
            "",
            json.dumps({"id": "b", "model": "block", "scale": SCALE, "penalty": 1e6}),
            json.dumps({"cmd": "stats"}),
        ]
        out = io.StringIO()
        q = JobQueue()
        answered = serve_stdio(q, io.StringIO("\n".join(lines) + "\n"), out)
        assert answered == 2
        recs = [json.loads(l) for l in out.getvalue().splitlines()]
        by_id = {r.get("id"): r for r in recs if "id" in r}
        assert by_id["a"]["cache"] == {"structure": "miss", "factor": "build"}
        assert by_id["b"]["cache"] == {"structure": "hit", "factor": "hit"}
        stats = next(r for r in recs if r.get("cmd") == "stats")
        assert stats["stats"]["jobs"]["done"] == 2

    def test_finished_jobs_keep_x_only_when_asked(self, tmp_path):
        # a long-lived server must not hold every answered vector: after
        # its result is durable a job keeps x only if the request set
        # return_x, and the journal still has x for a later retry
        import io

        q = JobQueue(journal_dir=tmp_path)
        for rnd in range(3):
            lines = [
                json.dumps({"id": f"r{rnd}-{i}", "model": "block", "scale": SCALE,
                            "penalty": 1e6, "rhs": {"seed": i},
                            "return_x": i == 0})
                for i in range(3)
            ]
            out = io.StringIO()
            assert serve_stdio(q, io.StringIO("\n".join(lines) + "\n"), out) == 3
            recs = [json.loads(l) for l in out.getvalue().splitlines()]
            assert ["x" in r for r in recs] == [True, False, False]
            assert len(recs[0]["x"]) == recs[0]["ndof"]
        for rnd in range(3):
            assert [q.job(f"r{rnd}-{i}").response.x is not None for i in range(3)] \
                == [True, False, False]
        q.close()

        q2 = JobQueue(journal_dir=tmp_path)
        silent = q2.submit(_req(job_id="r2-1", rhs={"seed": 1}))
        asked = q2.submit(_req(job_id="r2-2", rhs={"seed": 2}, return_x=True))
        assert silent.response.x is None
        assert asked.response.x is not None and "x" in asked.response.to_dict()
        assert q2.session.jobs_served == 0
        q2.close()

    def test_stdio_bad_line_answers_error(self):
        import io

        out = io.StringIO()
        serve_stdio(JobQueue(), io.StringIO("this is not json\n"), out)
        rec = json.loads(out.getvalue().splitlines()[0])
        assert not rec["ok"] and "invalid JSON" in rec["error"]

    def test_run_batch_file(self, tmp_path):
        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text("\n".join(
            json.dumps({"id": f"j{i}", "model": "block", "scale": SCALE,
                        "penalty": 1e6, "rhs": {"seed": i}})
            for i in range(3)
        ) + "\n")
        out = tmp_path / "out.jsonl"
        jobs = run_batch(JobQueue(), reqs, out)
        assert [j.job_id for j in jobs] == ["j0", "j1", "j2"]
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(r["ok"] and r["coalesced"] == 3 for r in recs)

    def test_requests_table_from_trace(self, tmp_path):
        with obs.observe() as tracer:
            q = JobQueue()
            q.submit(_req(job_id="t1"))
            q.process()
        table = obs.requests_table(tracer)
        assert "t1" in table and "miss/build" in table
        path = tmp_path / "trace.jsonl"
        obs.export_jsonl(tracer, path)
        table2 = obs.requests_table(obs.load_jsonl_records(path))
        assert "t1" in table2
        assert "journal:" not in table  # nothing was journaled

        with obs.observe() as tracer:
            q = JobQueue(journal_dir=tmp_path / "j")
            q.submit(_req(job_id="t2"))
            q.process()
            q.close()
        obs.export_jsonl(tracer, path)
        for source in (tracer, obs.load_jsonl_records(path)):
            last = obs.requests_table(source).splitlines()[-1]
            assert last.startswith("journal: 2 commits, 2 records, ")
