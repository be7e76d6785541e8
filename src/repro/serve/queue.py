"""Coalescing job queue with durable journaling, admission control, and
crash recovery.

Life of a job:

1. ``submit`` — screen through the admission controller (bounded depth →
   ``OVERLOADED``, oversized payload → ``POISONED_PAYLOAD``; a refused
   request gets its structured terminal response immediately and is
   never journaled); assign an id; if the job log already holds a result
   for that id, short-circuit to it (idempotent retry), else mark the
   job pending;
2. ``process`` — claim pending jobs, refuse any whose deadline expired
   while queued (``REQUEST_TIMEOUT``), make the requests of the rest
   durable in **one commit** of the job log
   (:class:`repro.io.joblog.JobLog`: checksummed records appended with
   one write and one ``fsync``), **then** group + coalesce + solve —
   through the worker pool when one is attached, else the session —
   **then** make all their results durable in one more commit, and only
   then return: two syncs per call, whatever the batch size;
3. ``resume`` — walk the log's index, re-submit every journaled request
   (finished ones short-circuit to their recorded answer), process.

Determinism contract: requests are journaled *before* any solving, and
``process`` always works through pending jobs in job-id order, grouping
by solve key in first-appearance order.  A replay after a crash therefore
reassembles exactly the coalesced solves of the original run — same
groups, same RHS column order, and for ``precond="auto"`` the same
family, because the cost model decides from the operator and the
tolerance alone — so resumed answers are bit-for-bit what the
uninterrupted server would have returned.  A worker pool preserves
this: concurrency is across groups, never inside one.  Group commit does
not touch it: which jobs run together is decided before the commit and
the log's record order plays no part in a replay.

Concurrency: ``submit``/``process`` are thread-safe (the socket front end
runs one thread per connection).  Without a pool, concurrent ``process``
calls serialize on an internal lock — the session's serial path mutates
shared operator values in place and must stay single-consumer; with a
pool, they overlap freely (each group solves in a forked worker).  The log
takes whole commits under its own lock.  One queue per journal
directory: the log holds a ``flock`` until :meth:`JobQueue.close`.

Journal retention (:class:`RetentionPolicy`): an unbounded job log is
how a long-lived server fills a disk — and an unbounded job table its
memory.  After each ``process``, finished jobs beyond ``keep_last`` (or
over the ``max_bytes`` budget) are dropped oldest-first from the log's
index *and* from the queue's job table; the log rewrites its file once
dead bytes outweigh live ones.  A dropped job loses its idempotent-retry
short-circuit (its id solves again) — that is the documented trade.

Crash injection for tests (``REPRO_SERVE_CRASH`` env var):
``after-journal`` hard-exits once the pending requests are durable but
before solving; ``before-result`` hard-exits after solving but before the
result commit.  Both are windows a real crash could hit; in both,
``resume`` must recover every in-flight job.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.io.joblog import Entry, JobLog
from repro.serve.admission import AdmissionController
from repro.serve.protocol import ProtocolError, SolveRequest, SolveResponse
from repro.serve.session import SolverSession

__all__ = ["Job", "JobQueue", "RetentionPolicy"]

CRASH_ENV = "REPRO_SERVE_CRASH"


def _crash_hook(stage: str) -> None:
    # os._exit so no atexit/finally can soften the simulated crash.
    if os.environ.get(CRASH_ENV) == stage:
        os._exit(17)


@dataclass(frozen=True)
class RetentionPolicy:
    """Journal compaction knobs; None disables that bound.

    ``keep_last`` keeps at most that many *finished* jobs (their request
    and result records, and their entry in the queue's job table);
    ``max_bytes`` additionally drops oldest finished jobs whenever the
    log file outgrows the byte budget.  In-flight jobs (a request record
    without a result) are never dropped — they are exactly what
    ``resume`` exists to recover."""

    keep_last: int | None = None
    max_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.keep_last is not None and self.keep_last < 0:
            raise ValueError(f"keep_last must be >= 0, got {self.keep_last}")
        if self.max_bytes is not None and self.max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {self.max_bytes}")

    @property
    def enabled(self) -> bool:
        return self.keep_last is not None or self.max_bytes is not None


@dataclass
class Job:
    job_id: str
    request: SolveRequest
    state: str = "pending"  # pending | running | done | failed | rejected
    response: SolveResponse | None = None
    journaled: bool = False


# -- job <-> log record codec ----------------------------------------------


def _request_journal_parts(req: SolveRequest) -> tuple[dict[str, np.ndarray], dict]:
    meta = req.to_dict()
    arrays: dict[str, np.ndarray] = {}
    if isinstance(req.rhs, np.ndarray):
        # Big payloads ride in the npz section; the meta keeps a digest so
        # retries of the same id can be matched against the recorded job.
        arr = np.ascontiguousarray(req.rhs)
        meta["rhs"] = "__array__"
        meta["rhs_sha256"] = hashlib.sha256(arr.tobytes()).hexdigest()
        arrays["rhs"] = arr
    return arrays, meta


def _request_from_journal(arrays: dict[str, np.ndarray], meta: dict) -> SolveRequest:
    d = {k: v for k, v in meta.items() if k != "rhs_sha256"}
    if d.get("rhs") == "__array__":
        d["rhs"] = arrays["rhs"]
    return SolveRequest.from_dict(d)


def _request_entry(job: Job) -> Entry:
    arrays, meta = _request_journal_parts(job.request)
    return job.job_id, arrays, {"request": meta}


def _result_entry(job: Job) -> Entry:
    resp = job.response
    assert resp is not None
    arrays: dict[str, np.ndarray] = {}
    if resp.x is not None:
        arrays["x"] = np.asarray(resp.x)
    resp_meta: dict[str, Any] = {
        "ok": resp.ok,
        "converged": resp.converged,
        "iterations": resp.iterations,
        "relative_residual": resp.relative_residual,
        "ndof": resp.ndof,
        "fingerprint": resp.fingerprint,
        "coalesced": resp.coalesced,
        "wall_seconds": resp.wall_seconds,
        "cache": resp.cache,
        "setups": resp.setups,
        "x_sha256": resp.x_sha256,
    }
    if resp.error is not None:
        resp_meta["error"] = resp.error
    if resp.reason is not None:
        resp_meta["reason"] = resp.reason
    _, req_meta = _request_journal_parts(job.request)
    return job.job_id, arrays, {"request": req_meta, "response": resp_meta}


def write_journal(log: JobLog, kind: str, jobs: list[Job]) -> None:
    """Make the request (``"req"``) or result (``"res"``) records of *jobs*
    durable in one commit of *log*.  Every durable write of the queue goes
    through this module-level name (the bench harness wraps it by name),
    so a traced ``io.journal_write`` is one commit, not one job."""
    entry = _request_entry if kind == "req" else _result_entry
    log.commit(kind, [entry(job) for job in jobs])


class JobQueue:
    """Thread-safe queue in front of a :class:`SolverSession` or
    :class:`~repro.serve.pool.WorkerPool`.

    ``journal_dir=None`` disables durability (pure in-memory serving);
    with a directory, every admitted job is in the directory's job log
    before it runs and every finished job's answer is after.
    """

    def __init__(self, session: SolverSession | None = None,
                 journal_dir: str | Path | None = None,
                 pool=None,
                 admission: AdmissionController | None = None,
                 retention: RetentionPolicy | None = None) -> None:
        self.session = session if session is not None else SolverSession()
        self.pool = pool
        self.admission = admission
        self.retention = retention if retention is not None else RetentionPolicy()
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self._log = JobLog(self.journal_dir) if self.journal_dir is not None else None
        self._jobs: dict[str, Job] = {}
        # Jobs that reached each state: pending/running are current,
        # the terminal states cumulative (retention drops finished jobs
        # from the table, not from the tally).
        self._states = dict.fromkeys(
            ("pending", "running", "done", "failed", "rejected"), 0
        )
        self._counter = 0
        self._lock = threading.RLock()
        self._serial_process_lock = threading.Lock()

    def close(self) -> None:
        """Release the job log and its directory lock; idempotent."""
        if self._log is not None:
            self._log.close()

    def _move(self, job: Job, state: str) -> None:
        with self._lock:
            self._states[job.state] -= 1
            self._states[state] += 1
            job.state = state

    # -- submission --------------------------------------------------------

    def depth(self) -> int:
        """Jobs pending or running — the admission back-pressure signal."""
        with self._lock:
            return self._states["pending"] + self._states["running"]

    def submit(self, request: SolveRequest) -> Job:
        # Server-side receipt stamp: deadlines count from the moment the
        # server first takes the request, on the server's monotonic
        # clock.  A client's wall-clock `submitted_at` (stored as
        # `client_submitted_at`) is trace-only and never enters this
        # arithmetic; an already-present server stamp (e.g. a test
        # simulating a long front-end wait) is preserved.
        if request.submitted_at is None:
            request.submitted_at = time.monotonic()
        log = self._log
        with self._lock:
            job_id = request.job_id
            if job_id is None:
                while True:
                    self._counter += 1
                    job_id = f"job-{self._counter:06d}"
                    # an id journaled by an earlier life of this directory
                    # belongs to that job, not to this one
                    if job_id not in self._jobs and not (
                            log is not None and log.has("req", job_id)):
                        break
                request.job_id = job_id
            elif job_id in self._jobs:
                raise ProtocolError(f"duplicate job id {job_id!r}")

            job = Job(job_id=job_id, request=request)
            rejection = None
            if self.admission is not None:
                rejection = self.admission.screen_submit(request, self.depth())
            if rejection is not None:
                job.response, job.state = rejection, "rejected"
            elif log is not None and log.has("res", job_id):
                job.response = self._load_result(job_id, request)
                job.state = "done" if job.response.ok else "failed"
                job.journaled = True
            self._states[job.state] += 1
            self._jobs[job_id] = job
            return job

    def _load_result(self, job_id: str, request: SolveRequest) -> SolveResponse:
        """Idempotent-retry short circuit: a recorded result with a
        matching request replays the recorded answer without solving.
        A *different* request under the same id is refused loudly."""
        arrays, meta = self._log.read("res", job_id)
        recorded = meta.get("request", {})
        current = _request_journal_parts(request)[1]
        # return_x is presentation-only; priority/deadline_s are
        # scheduling hints, and submitted_at is the client's trace-only
        # wall clock — a retry with a fresh deadline or a new client
        # timestamp is the same job.
        ignore = ("return_x", "priority", "deadline_s", "submitted_at")
        if {k: v for k, v in recorded.items() if k not in ignore} != \
           {k: v for k, v in current.items() if k not in ignore}:
            raise ProtocolError(
                f"job id {job_id!r} already has a journaled result for a "
                "different request; refusing to overwrite it"
            )
        resp_meta = meta["response"]
        return SolveResponse(
            job_id=job_id,
            ok=bool(resp_meta["ok"]),
            converged=bool(resp_meta["converged"]),
            iterations=int(resp_meta["iterations"]),
            relative_residual=float(resp_meta["relative_residual"]),
            ndof=int(resp_meta["ndof"]),
            fingerprint=resp_meta["fingerprint"],
            coalesced=int(resp_meta["coalesced"]),
            wall_seconds=float(resp_meta["wall_seconds"]),
            cache=dict(resp_meta["cache"]),
            setups=dict(resp_meta["setups"]),
            x_sha256=resp_meta["x_sha256"],
            x=arrays.get("x") if request.return_x else None,
            return_x=request.return_x,
            resumed=True,
            error=resp_meta.get("error"),
            reason=resp_meta.get("reason"),
        )

    # -- processing --------------------------------------------------------

    def process(self, jobs: list[Job] | None = None) -> list[Job]:
        """Run pending jobs; returns the jobs finished by this call.

        With *jobs* the call claims only those (a connection thread
        processing its own batch); without, every pending job.  Claimed
        jobs move ``pending`` → ``running`` atomically, so concurrent
        callers never double-solve one."""
        with self._lock:
            candidates = jobs if jobs is not None else list(self._jobs.values())
            claimed = sorted(
                (j for j in candidates if j.state == "pending"),
                key=lambda j: j.job_id,
            )
            for job in claimed:
                self._move(job, "running")
        if not claimed:
            return []

        try:
            return self._run_claimed(claimed)
        except BaseException:
            with self._lock:  # crash hooks bypass this via os._exit
                for job in claimed:
                    if job.state == "running":
                        self._move(job, "pending")
            raise

    def _run_claimed(self, claimed: list[Job]) -> list[Job]:
        # Dispatch screening: a deadline that expired while queued gets a
        # structured refusal without burning a worker.
        to_solve: list[Job] = []
        for job in claimed:
            rejection = None
            if self.admission is not None:
                rejection = self.admission.screen_dispatch(job.request)
            if rejection is not None:
                job.response = rejection
                self._move(job, "rejected")
            else:
                to_solve.append(job)

        if to_solve and self._log is not None:
            fresh = [job for job in to_solve if not job.journaled]
            if fresh:
                write_journal(self._log, "req", fresh)
                for job in fresh:
                    job.journaled = True
            _crash_hook("after-journal")

        if to_solve:
            if self.pool is not None:
                responses = self.pool.solve_batch([j.request for j in to_solve])
            else:
                # The serial path mutates shared operator values in
                # place; concurrent connection threads must take turns.
                with self._serial_process_lock:
                    responses = self.session.solve_batch(
                        [j.request for j in to_solve]
                    )
            for job, resp in zip(to_solve, responses):
                job.response = resp
            if self._log is not None:
                _crash_hook("before-result")
                write_journal(self._log, "res", to_solve)
            # terminal only once the answer is durable; from then on the
            # job log has x for a retry, and the job keeps it only for a
            # client that asked
            for job, resp in zip(to_solve, responses):
                if not job.request.return_x:
                    resp.x = None
                self._move(job, "done" if resp.ok else "failed")

        if self.retention.enabled:
            self.compact()
        return claimed

    # -- retention ---------------------------------------------------------

    def compact(self) -> int:
        """Drop oldest finished jobs per the retention policy, from the
        log's index and from the job table; returns how many.

        ``keep_last`` is exact at every call.  ``max_bytes`` acts when
        the log *file* outgrows the budget, and then drops down to half
        of it: the log rewrites its file only once dead bytes outweigh
        live ones, so dropping to the budget itself would leave a file
        that is over it again one batch later — and copied in full each
        time.  Counters ride in ``stats()["journal"]``."""
        if self._log is None or not self.retention.enabled:
            return 0
        with self._lock:
            finished = self._log.finished()  # oldest first
            keep_last, max_bytes = self.retention.keep_last, self.retention.max_bytes
            ndrop = 0
            if keep_last is not None:
                ndrop = max(0, len(finished) - keep_last)
            if max_bytes is not None:
                usage = self._log.stats()
                if usage["bytes"] > max_bytes:
                    live = usage["live_bytes"] - sum(n for _, n in finished[:ndrop])
                    while ndrop < len(finished) and live > max_bytes // 2:
                        live -= finished[ndrop][1]
                        ndrop += 1
            dropped = [job_id for job_id, _ in finished[:ndrop]]
            self._log.drop(dropped)
            for job_id in dropped:
                self._jobs.pop(job_id, None)
            return len(dropped)

    # -- recovery ----------------------------------------------------------

    def resume(self) -> list[Job]:
        """Recover the jobs on record in the journal directory.

        Every journaled request not already in the job table is
        re-submitted; those with a recorded result short-circuit to it,
        the rest re-solve deterministically.  Returns the recovered jobs
        in job-id order.
        """
        if self._log is None:
            return []
        recovered: list[Job] = []
        for job_id in self._log.job_ids():
            if job_id in self._jobs:
                continue
            arrays, meta = self._log.read("req", job_id)
            request = _request_from_journal(arrays, meta["request"])
            request.job_id = job_id
            job = self.submit(request)
            job.journaled = True
            recovered.append(job)
        self.process()
        for job in recovered:
            if job.response is not None:
                job.response.resumed = True
        return recovered

    # -- introspection -----------------------------------------------------

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            states = dict(self._states)
        out: dict[str, Any] = {"jobs": states, "session": self.session.stats()}
        if self._log is not None:
            out["journal"] = self._log.stats()
        if self.admission is not None:
            out["admission"] = self.admission.stats()
        if self.pool is not None:
            out["pool"] = self.pool.stats()
        return out
