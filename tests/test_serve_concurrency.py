"""Hardened serving layer: worker pool, admission control, deadlines,
fault isolation, journal retention.

The robustness properties of the concurrency tentpole live here:

- pooled solves (forked workers) are **bit-identical** to the serial
  batch path — concurrency is across groups, never inside one;
- a crashed or wedged worker settles only its own group's jobs (with a
  structured ``worker_crash`` / ``request_timeout`` answer + quarantine
  record) while every other group keeps solving, and the pool replaces
  the lost worker so capacity never decays;
- the admission front refuses work *structurally*: full queue →
  ``overloaded``, oversized payload → ``poisoned_payload``, deadline
  expired while queued → ``request_timeout`` — never an exception;
- journal retention drops finished request/result pairs from the job log
  without ever touching an in-flight job's request record.
"""

from __future__ import annotations

import hashlib
import time
import warnings

import numpy as np
import pytest

from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    JobQueue,
    ProtocolError,
    RetentionPolicy,
    SolveRequest,
    SolverSession,
    WorkerPool,
)
from repro.serve.queue import Job, write_journal

SCALE = 0.25  # smallest block model: fast enough for per-test batches
POOL_PRECONDS = ("sbbic0", "bic0", "ic0")


def _req(**kw) -> SolveRequest:
    base = dict(model="block", scale=SCALE, penalty=1e4, precond="sbbic0")
    base.update(kw)
    return SolveRequest(**base)


@pytest.fixture(scope="module")
def session() -> SolverSession:
    """One warm session shared across tests (it is thread-safe; pools
    attach to it rather than owning it)."""
    s = SolverSession()
    s.solve_batch([_req(job_id=f"warm-{p}", precond=p) for p in POOL_PRECONDS])
    return s


# -- protocol hardening ----------------------------------------------------


class TestProtocolHardening:
    def test_priority_clamped_at_boundary(self):
        assert _req(priority=7).priority == 7
        assert _req(priority=-100).priority == -100
        with pytest.raises(ProtocolError, match="priority"):
            _req(priority=101)

    def test_deadline_must_be_positive_finite(self):
        assert _req(deadline_s=2.5).deadline_s == 2.5
        with pytest.raises(ProtocolError, match="deadline_s"):
            _req(deadline_s=0.0)
        with pytest.raises(ProtocolError, match="deadline_s"):
            _req(deadline_s=float("inf"))

    def test_remaining_counts_from_admission(self):
        r = _req(deadline_s=10.0)
        r.submitted_at = 100.0
        assert r.remaining_s(104.0) == pytest.approx(6.0)
        assert _req().remaining_s(104.0) is None  # no deadline

    def test_nonfinite_rhs_refused_at_protocol_boundary(self):
        with pytest.raises(ProtocolError, match="non-finite"):
            _req(rhs=[1.0, float("nan"), 3.0])
        with pytest.raises(ProtocolError, match="non-finite"):
            _req(rhs=[1.0, float("inf")])

    def test_non_flat_rhs_refused(self):
        with pytest.raises(ProtocolError, match="flat"):
            _req(rhs=[[1.0, 2.0], [3.0, 4.0]])

    def test_chaos_field_gated_on_environment(self, monkeypatch):
        wire = {"id": "c1", "model": "block", "scale": SCALE,
                "chaos": {"kind": "crash"}}
        monkeypatch.delenv("REPRO_SERVE_CHAOS", raising=False)
        with pytest.raises(ProtocolError, match="unknown request fields"):
            SolveRequest.from_dict(dict(wire))
        monkeypatch.setenv("REPRO_SERVE_CHAOS", "1")
        req = SolveRequest.from_dict(dict(wire))
        assert req.chaos == {"kind": "crash"}
        # a chaos request never coalesces with its neighbours
        healthy = _req(job_id="c2", scale=SCALE)
        prepared = [
            {"req": r, "fp": "same-operator", "precond": "sbbic0", "job_id": r.job_id}
            for r in (req, healthy)
        ]
        assert len(SolverSession.group_batch(prepared)) == 2

    def test_chaos_kind_validated(self):
        with pytest.raises(ProtocolError, match="chaos"):
            _req(chaos={"kind": "meltdown"})


# -- admission control -------------------------------------------------------


class TestAdmission:
    def test_full_queue_answers_overloaded(self, session):
        queue = JobQueue(
            session=session,
            admission=AdmissionController(AdmissionPolicy(max_queue_depth=1)),
        )
        first = queue.submit(_req(job_id="adm-1"))
        second = queue.submit(_req(job_id="adm-2"))
        assert first.state == "pending"
        assert second.state == "rejected"
        assert second.response is not None
        assert not second.response.ok
        assert second.response.reason == "overloaded"
        # the admitted job still solves
        queue.process()
        assert first.state == "done" and first.response.converged
        st = queue.stats()["admission"]
        assert st["admitted"] == 1
        assert st["rejected"] == {"overloaded": 1}

    def test_oversized_payload_refused_before_journaling(self, session, tmp_path):
        queue = JobQueue(
            session=session, journal_dir=tmp_path,
            admission=AdmissionController(
                AdmissionPolicy(max_payload_bytes=64)
            ),
        )
        job = queue.submit(_req(job_id="adm-big", rhs=[1.0] * 100))
        assert job.state == "rejected"
        assert job.response.reason == "poisoned_payload"
        assert queue.stats()["journal"]["records"] == 0  # never journaled
        queue.close()

    def test_deadline_expired_in_queue_refused_at_dispatch(self, session):
        admission = AdmissionController(AdmissionPolicy())
        queue = JobQueue(session=session, admission=admission)
        job = queue.submit(_req(job_id="adm-late", deadline_s=0.01))
        time.sleep(0.05)
        queue.process()
        assert job.state == "rejected"
        assert job.response.reason == "request_timeout"
        assert admission.deadline_expired == 1

    def test_queue_wait_counts_from_server_receipt(self, session):
        """Regression: admission used to restamp ``submitted_at``
        unconditionally, resetting the deadline clock of a request that
        had already waited at the server — a job 10s past a 5s deadline
        would dispatch anyway.  The receipt stamp must be set once and
        preserved through screening."""
        admission = AdmissionController(AdmissionPolicy())
        queue = JobQueue(session=session, admission=admission)
        req = _req(job_id="adm-stale", deadline_s=5.0)
        # simulate a request the server took 10s ago (front-end queueing)
        req.submitted_at = time.monotonic() - 10.0
        job = queue.submit(req)
        assert job.state == "pending"  # refusal happens at dispatch
        assert req.submitted_at < time.monotonic() - 9.0  # not restamped
        queue.process()
        assert job.state == "rejected"
        assert job.response.reason == "request_timeout"
        assert admission.deadline_expired == 1

    def test_client_submitted_at_is_trace_only(self, session):
        """A client's wall-clock ``submitted_at`` rides the wire for
        tracing but never enters deadline arithmetic: wall clocks share
        no epoch with the server's monotonic clock."""
        wall = 1.7e9  # epoch seconds, wildly different from monotonic
        req = SolveRequest.from_dict({
            "id": "adm-wall", "model": "block", "scale": SCALE,
            "penalty": 1e4, "precond": "sbbic0",
            "deadline_s": 30.0, "submitted_at": wall,
        })
        assert req.client_submitted_at == wall
        assert req.submitted_at is None  # server stamp untouched
        assert req.to_dict()["submitted_at"] == wall  # journaled for tracing
        queue = JobQueue(
            session=session, admission=AdmissionController(AdmissionPolicy())
        )
        job = queue.submit(req)
        # deadline budget is measured from server receipt, so the huge
        # client/server clock skew must not have consumed any of it
        remaining = req.remaining_s(time.monotonic())
        assert remaining == pytest.approx(30.0, abs=1.0)
        queue.process()
        assert job.state == "done" and job.response.converged

    def test_default_deadline_stamped_at_admission(self, session):
        admission = AdmissionController(
            AdmissionPolicy(default_deadline_s=30.0)
        )
        queue = JobQueue(session=session, admission=admission)
        job = queue.submit(_req(job_id="adm-default"))
        assert job.request.deadline_s == 30.0
        assert job.request.submitted_at is not None

    def test_quarantine_ring_is_bounded(self):
        from repro.serve.admission import QUARANTINE_KEEP, QuarantineRecord

        admission = AdmissionController()
        n = QUARANTINE_KEEP + 3
        for i in range(n):
            admission.quarantine(
                QuarantineRecord(job_id=f"q-{i}", reason="worker_crash")
            )
        ring = list(admission._quarantine)
        assert len(ring) == QUARANTINE_KEEP
        assert (ring[0].job_id, ring[-1].job_id) == ("q-3", f"q-{n - 1}")
        stats = admission.stats()
        assert stats["quarantined"] == n
        assert [r["job_id"] for r in stats["quarantine_tail"]] == [
            f"q-{i}" for i in range(n - 5, n)
        ]


# -- priority ordering --------------------------------------------------------


class TestPriorityOrdering:
    def test_high_priority_groups_solve_first(self, session):
        reqs = [
            _req(job_id="lo", precond="sbbic0", priority=0),
            _req(job_id="hi", precond="bic0", priority=9),
            _req(job_id="mid", precond="ic0", priority=4),
        ]
        prepared, _ = session.prepare_batch(reqs)
        groups = session.group_batch(prepared)
        order = [prepared[idxs[0]]["req"].job_id for idxs in groups.values()]
        assert order == ["hi", "mid", "lo"]

    def test_all_default_priorities_keep_submission_order(self, session):
        reqs = [
            _req(job_id="a", precond="bic0"),
            _req(job_id="b", precond="sbbic0"),
        ]
        prepared, _ = session.prepare_batch(reqs)
        groups = session.group_batch(prepared)
        order = [prepared[idxs[0]]["req"].job_id for idxs in groups.values()]
        assert order == ["a", "b"]


# -- journal retention --------------------------------------------------------


class TestRetention:
    def test_policy_validates(self):
        with pytest.raises(ValueError):
            RetentionPolicy(keep_last=-1)
        with pytest.raises(ValueError):
            RetentionPolicy(max_bytes=-1)
        assert not RetentionPolicy().enabled
        assert RetentionPolicy(keep_last=5).enabled

    def test_keep_last_compacts_oldest_finished_pairs(self, session, tmp_path):
        queue = JobQueue(
            session=session, journal_dir=tmp_path,
            retention=RetentionPolicy(keep_last=1),
        )
        # Each id one character longer than the last, so one dropped job
        # never outweighs the next on its own: the records otherwise
        # differ only by the repr length of ``wall_seconds``, a byte
        # either way, which would decide the batch that rewrites.
        for job_id in ("ret-0", "ret-01", "ret-002"):
            queue.submit(_req(job_id=job_id))
            queue.process()
            # index-exact: only the newest finished job is on record,
            # whatever the file still holds
            assert queue._log.finished()[0][0] == job_id
            assert queue.stats()["journal"]["records"] == 2
        # disk-amortised: the file was rewritten once, when the two
        # dropped jobs outweighed the kept one
        journal = queue.stats()["journal"]
        assert journal["compactions"] == 1
        assert journal["compacted_bytes"] > 0
        assert journal["bytes"] == journal["live_bytes"] \
            == (tmp_path / "jobs.log").stat().st_size
        queue.close()

    def test_max_bytes_budget(self, session, tmp_path):
        queue = JobQueue(
            session=session, journal_dir=tmp_path,
            retention=RetentionPolicy(max_bytes=0),
        )
        queue.submit(_req(job_id="ret-b"))
        queue.process()
        journal = queue.stats()["journal"]
        assert journal["records"] == 0 and journal["bytes"] == 0
        assert (tmp_path / "jobs.log").stat().st_size == 0
        queue.close()

    def test_inflight_request_journal_never_compacted(self, session, tmp_path):
        queue = JobQueue(
            session=session, journal_dir=tmp_path,
            retention=RetentionPolicy(keep_last=0),
        )
        # a request record without a result is exactly what resume()
        # recovers — compaction must leave it alone, in the index and
        # through the rewrite the finished job's dead bytes trigger
        write_journal(queue._log, "req", [Job("inflight", _req(job_id="inflight"))])
        queue.submit(_req(job_id="finished"))
        queue.process()
        assert queue.stats()["journal"]["compactions"] == 1
        assert queue._log.job_ids() == ["inflight"]
        queue.close()
        reopened = JobQueue(session=session, journal_dir=tmp_path)
        assert [j.job_id for j in reopened.resume()] == ["inflight"]
        reopened.close()


# -- worker pool: forked workers ---------------------------------------------


class TestWorkerPoolProcess:
    def test_constructor_validates(self, session):
        with pytest.raises(ValueError):
            WorkerPool(session, workers=0)

    def test_pooled_answers_bit_identical_to_serial(self, session):
        def batch():
            return [
                _req(job_id=f"pbit-{p}", precond=p)
                for p in POOL_PRECONDS[:2]
            ]

        serial = session.solve_batch(batch())
        with WorkerPool(session, workers=2) as pool:
            pooled = pool.solve_batch(batch())
        assert all(r.ok and r.converged for r in pooled)
        assert [r.x_sha256 for r in pooled] == [r.x_sha256 for r in serial]
        assert [r.job_id for r in pooled] == [r.job_id for r in serial]

    def test_child_death_classified_and_respawned(self, session):
        admission = AdmissionController(AdmissionPolicy())
        pool = WorkerPool(session, workers=1, admission=admission)
        try:
            out = pool.solve_batch(
                [_req(job_id="pboom", chaos={"kind": "crash"})]
            )
            assert not out[0].ok
            assert out[0].reason == "worker_crash"
            assert pool.stats()["crashes"] == 1
            # the replacement child serves the next batch
            again = pool.solve_batch([_req(job_id="pafter")])
            assert again[0].ok and again[0].converged
            assert admission.stats()["quarantined"] >= 1
        finally:
            pool.close()

    def test_wedged_child_killed_at_deadline(self, session):
        pool = WorkerPool(session, workers=1)
        try:
            t0 = time.monotonic()
            out = pool.solve_batch([
                _req(job_id="pstuck", deadline_s=0.3,
                     chaos={"kind": "wedge", "seconds": 10.0}),
            ])
            elapsed = time.monotonic() - t0
            assert not out[0].ok
            assert out[0].reason == "request_timeout"
            assert elapsed < 8.0  # killed at the deadline, not the wedge
            assert pool.stats()["timeouts"] == 1
        finally:
            pool.close()

    def test_crash_and_wedge_leave_sibling_groups_untouched(self, session):
        """One batch: a crashed child, a wedged child, a healthy group."""
        serial = session.solve_batch([_req(job_id="pfine", precond="bic0")])
        pool = WorkerPool(session, workers=3)
        try:
            out = pool.solve_batch([
                _req(job_id="pboom", chaos={"kind": "crash"}),
                _req(job_id="pstuck", deadline_s=0.5,
                     chaos={"kind": "wedge", "seconds": 10.0}),
                _req(job_id="pfine", precond="bic0"),
            ])
            by_id = {r.job_id: r for r in out}
            assert by_id["pboom"].reason == "worker_crash"
            assert by_id["pstuck"].reason == "request_timeout"
            assert by_id["pfine"].ok and by_id["pfine"].converged
            assert by_id["pfine"].x_sha256 == serial[0].x_sha256
            stats = pool.stats()
            assert (stats["crashes"], stats["timeouts"]) == (1, 1)
            assert stats["replaced_workers"] == 2
            # both replacements serve
            again = pool.solve_batch(
                [_req(job_id=f"pafter-{p}", precond=p) for p in POOL_PRECONDS]
            )
            assert all(r.ok and r.converged for r in again)
        finally:
            pool.close()

    def test_per_worker_tallies_sum_to_completed(self, session):
        with WorkerPool(session, workers=2) as pool:
            pool.solve_batch(
                [_req(job_id=f"tally-{p}", precond=p) for p in POOL_PRECONDS]
            )
            stats = pool.stats()
        assert sum(stats["per_worker"].values()) == stats["completed"] == 3
        assert stats["workers"] == 2

    def test_raising_group_answered_and_worker_kept(self, session, monkeypatch):
        """A group whose solve raises in the child gets one error answer
        per job; the worker, back in its command loop, is kept."""
        def broken(self, requests):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(SolverSession, "solve_batch", broken)
        with WorkerPool(session, workers=1) as pool:  # forked after the patch
            pid = pool._procs.process(0).pid
            out = pool.solve_batch([_req(job_id="praise")])
            stats = pool.stats()
            assert pool._procs.process(0).pid == pid
        assert [(r.ok, r.error) for r in out] == [
            (False, "RuntimeError: solver exploded")
        ]
        assert (stats["crashes"], stats["replaced_workers"]) == (0, 0)
        assert stats["completed"] == 1

    def test_worker_warnings_reach_the_parent(self, session, monkeypatch):
        from repro.resilience import PivotNudgeWarning

        solve = SolverSession.solve_batch

        def nudging(self, requests):
            warnings.warn("pivot nudged in a pool worker", PivotNudgeWarning)
            return solve(self, requests)

        monkeypatch.setattr(SolverSession, "solve_batch", nudging)
        with WorkerPool(session, workers=1) as pool:
            with pytest.warns(PivotNudgeWarning, match="in a pool worker"):
                out = pool.solve_batch([_req(job_id="pwarn")])
        assert out[0].ok and out[0].converged

    def test_close_is_idempotent(self, session):
        pool = WorkerPool(session, workers=1)
        pool.close()
        pool.close()

    def test_pooled_auto_outcomes_tallied_in_the_parent(self):
        """``precond: "auto"`` is decided by the parent's policy, so its
        outcome tally must count pooled groups as it counts serial ones —
        while the solving itself happens in the children, whose set-up
        caches are their own."""
        def batch():
            return [
                _req(job_id=f"pauto-{k}", penalty=pen, precond="auto")
                for k, pen in enumerate((1e4, 2e4, 4e4))
            ]

        def tallied(session):
            return {
                fp: {fam: (st["runs"], st["failures"], st["total_iterations"])
                     for fam, st in by_family.items()}
                for fp, by_family in
                session.workspace.policy_history.to_dict()["outcomes"].items()
            }

        serial_session = SolverSession()
        serial = serial_session.solve_batch(batch())
        parent = SolverSession()
        with WorkerPool(parent, workers=3) as pool:
            pooled = pool.solve_batch(batch())
        assert all(r.ok and r.converged for r in pooled)
        assert [r.x_sha256 for r in pooled] == [r.x_sha256 for r in serial]
        assert sum(runs for by_family in tallied(parent).values()
                   for runs, _, _ in by_family.values()) == 3
        assert tallied(parent) == tallied(serial_session)
        assert len(parent.workspace.factors) == 0  # solved in the children


# The case id names the pool's worker substrate: forked processes.
@pytest.mark.parametrize("workers", [pytest.param(4, id="process")])
def test_pooled_setups_census_matches_serial(workers):
    """Each response's ``setups`` counts its own group's work only, however
    many cold groups build their factors concurrently."""
    def batch():
        return [
            _req(job_id=f"cold-{p}", precond=p)
            for p in ("sbbic0", "bic0", "bic1", "ic0")
        ]

    serial = SolverSession().solve_batch(batch())
    assert [r.setups for r in serial] == [
        {"symbolic": 1, "numeric": 1, "evictions": 0}
    ] * 4
    with WorkerPool(SolverSession(), workers=workers) as pool:
        pooled = pool.solve_batch(batch())
    assert [r.setups for r in pooled] == [r.setups for r in serial]


@pytest.mark.parametrize("workers", [1, 2])
def test_pooled_swap_schedule_matches_serial(workers):
    """Back and forth between penalties, one batch each: the serial
    session swaps value sets back, a pool's workers (each with its own
    workspace: one worker sees the serial schedule, two see half of it
    each) swap, refactor or hit as their own caches say, and every
    answer is the same to the bit."""
    schedule = (1e4, 1e6, 1e4, 1e5, 1e4, 1e5)

    def batches():
        return [[_req(job_id=f"swap-{i}", penalty=lam)] for i, lam in enumerate(schedule)]

    serial_session = SolverSession()
    serial = [serial_session.solve_batch(b)[0] for b in batches()]
    assert [r.cache["factor"] for r in serial] == [
        "build", "refactor", "swap", "refactor", "swap", "swap",
    ]
    with WorkerPool(SolverSession(), workers=workers) as pool:
        pooled = [pool.solve_batch(b)[0] for b in batches()]
    assert all(r.ok and r.converged for r in pooled)
    if workers == 1:
        assert [r.cache for r in pooled] == [r.cache for r in serial]
    assert [r.x_sha256 for r in pooled] == [r.x_sha256 for r in serial]
    assert [r.iterations for r in pooled] == [r.iterations for r in serial]


# -- queue + pool integration --------------------------------------------------


class TestQueueWithPool:
    def test_stats_shape_has_every_section(self, session, tmp_path):
        pool = WorkerPool(session, workers=2)
        queue = JobQueue(
            session=session, journal_dir=tmp_path, pool=pool,
            admission=AdmissionController(AdmissionPolicy()),
            retention=RetentionPolicy(keep_last=8),
        )
        try:
            queue.submit(_req(job_id="stats-1"))
            queue.process()
            st = queue.stats()
        finally:
            pool.close()
            queue.close()
        assert st["jobs"]["done"] == 1
        assert {"records", "bytes", "live_bytes", "commits", "syncs",
                "torn_tail_records", "compactions", "compacted_bytes"} \
            == set(st["journal"])
        assert {"admitted", "rejected", "deadline_expired", "quarantined"} \
            <= set(st["admission"])
        assert {"dispatched", "completed", "timeouts", "crashes",
                "per_worker"} <= set(st["pool"])

    def test_pooled_queue_matches_serial_queue(self, session, tmp_path):
        serial_q = JobQueue(session=session)
        for i in range(4):
            serial_q.submit(_req(job_id=f"sq-{i}", rhs={"seed": i}))
        serial_jobs = serial_q.process()

        pool = WorkerPool(session, workers=2)
        pooled_q = JobQueue(session=session, pool=pool)
        try:
            for i in range(4):
                pooled_q.submit(_req(job_id=f"sq-{i}", rhs={"seed": i}))
            pooled_jobs = pooled_q.process()
        finally:
            pool.close()
        assert [j.response.x_sha256 for j in pooled_jobs] == \
            [j.response.x_sha256 for j in serial_jobs]

    def test_pooled_answer_retried_with_return_x_has_x(self, session, tmp_path):
        pool = WorkerPool(session, workers=1)
        queue = JobQueue(session=session, journal_dir=tmp_path, pool=pool)
        try:
            first = queue.submit(_req(job_id="px-1", rhs={"seed": 5}))
            queue.process()
        finally:
            pool.close()
            queue.close()
        assert first.response.ok and first.response.x is None

        queue = JobQueue(session=session, journal_dir=tmp_path)
        try:
            again = queue.submit(_req(job_id="px-1", rhs={"seed": 5}, return_x=True))
        finally:
            queue.close()
        assert again.state == "done" and again.response.resumed
        x = again.response.to_dict().get("x")
        assert x is not None and len(x) == again.response.ndof
        assert hashlib.sha256(np.asarray(x).tobytes()).hexdigest() == first.response.x_sha256

    def test_rejected_jobs_appear_in_requests_table(self, session):
        from repro import obs
        from repro.obs.export import requests_table

        with obs.observe() as tracer:
            queue = JobQueue(
                session=session,
                admission=AdmissionController(
                    AdmissionPolicy(max_queue_depth=1)
                ),
            )
            queue.submit(_req(job_id="tbl-ok"))
            queue.submit(_req(job_id="tbl-refused"))
            queue.process()
            table = requests_table(tracer)
        assert "reason" in table.splitlines()[0]
        assert "tbl-refused" in table
        assert "overloaded" in table
