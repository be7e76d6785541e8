"""Worker pool for the solver service: concurrent fingerprint groups,
deadlines, fault isolation, and worker replacement.

The coalescing batch pipeline (:class:`~repro.serve.session.SolverSession`)
already partitions a batch into *independent* groups — distinct operator
fingerprint / preconditioner / stopping criteria.  This module dispatches
those groups to forked worker processes instead of a serial loop, which
is the whole concurrency story: parallelism across groups, never inside
one, so pooled answers stay bit-identical to a serial run (each child
runs the exact serial solve path on its own lazy
:class:`~repro.serve.session.SolverSession`).  The workers are the
forked command workers of :mod:`repro.utils.workers`, the process
transport's rank workers' substrate; a group is one command.

The parent prepares and groups the batch — resolving ``precond="auto"``
to a family with its own policy — and ships each group's requests with
that family filled in, so a child never decides again; the group's
outcome comes back in its responses and is tallied in the parent's
policy history.  One dispatch thread per group waits on the child's pipe
up to the group's deadline: a child that dies mid-solve → ``WORKER_CRASH``
+ replacement; one still alive but silent at the deadline → SIGKILL +
replacement + ``REQUEST_TIMEOUT``.  Threads would share the parent's
caches, but measured no faster than serial (DESIGN.md §14) and could
not stop a wedged solve; forked children are kill-able and
crash-isolated at the price of per-child set-up caches.

A fault is *contained*: the afflicted group's jobs get structured
terminal responses (never exceptions), a quarantine record lands in the
admission controller, and every other in-flight group keeps solving.
Faults are injected for the chaos harness via the protocol's ``chaos``
field (gated on ``REPRO_SERVE_CHAOS``), which also forces the carrying
request into a private group so a crash can only take down its own job.
"""

from __future__ import annotations

import dataclasses
import os
import queue as _queue
import threading
import time
import warnings
from dataclasses import dataclass
from multiprocessing.connection import wait as mp_wait
from typing import Any

from repro.resilience.taxonomy import FailureReason
from repro.serve.admission import AdmissionController, QuarantineRecord, rejection_response
from repro.serve.protocol import SolveRequest, SolveResponse
from repro.serve.session import SolverSession
from repro.utils.workers import Workers

__all__ = ["WorkerPool"]

_WEDGE_DEFAULT_S = 30.0


@dataclass
class _Task:
    """One group dispatch: what to solve, where the answers go."""

    idxs: list[int]
    prepared: list
    responses: list
    precond: str  # the group's resolved family
    deadline: float | None  # absolute monotonic, None = unbounded


def _lazy_session(wid: int, state) -> None:
    """A pool worker's set-up: its session is built on first work."""
    state.session = None


def _solve_group(wid: int, state, requests: list[SolveRequest]) -> list[SolveResponse]:
    """One group, solved in a pool worker.  Chaos is enacted here so the
    *parent* observes a genuine child death / silence, exercising the
    same classification path a real fault would take."""
    for r in requests:
        if r.chaos is not None:
            if r.chaos["kind"] == "crash":
                os._exit(19)
            time.sleep(float(r.chaos.get("seconds", _WEDGE_DEFAULT_S)))
    if state.session is None:
        state.session = SolverSession()
    # x ships whether or not the client asked for it: the parent's job
    # log records it, so a retry with return_x can replay it; the queue
    # drops it once the record is durable
    return state.session.solve_batch(list(requests))


class WorkerPool:
    """Dispatch independent solve groups to forked worker processes.

    Drop-in for ``SolverSession.solve_batch`` from the queue's point of
    view: same request-order responses, same coalescing semantics, plus
    deadlines and fault isolation.  ``close()`` is idempotent, and a pool
    dropped without it still stops its workers when it is collected.
    """

    def __init__(
        self,
        session: SolverSession,
        workers: int = 2,
        admission: AdmissionController | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"pool needs >= 1 worker, got {workers}")
        self.session = session
        self.workers = int(workers)
        self.admission = admission
        self._lock = threading.Lock()
        self._stats = {
            "dispatched": 0, "completed": 0, "timeouts": 0,
            "crashes": 0, "replaced_workers": 0,
        }
        self._per_worker: dict[str, int] = {}
        self._procs = Workers(self.workers, _lazy_session, name="repro-serve-worker")
        self._procs.replace(range(self.workers))
        self._free: _queue.Queue = _queue.Queue()
        for wid in range(self.workers):
            self._free.put(wid)

    # -- public API --------------------------------------------------------

    def solve_batch(self, requests: list[SolveRequest]) -> list[SolveResponse]:
        """Solve a batch with groups fanned out across the pool."""
        prepared, responses = self.session.prepare_batch(requests)
        groups = self.session.group_batch(prepared)
        now = time.monotonic()
        tasks: list[_Task] = []
        for key, idxs in groups.items():
            deadline = None
            for i in idxs:
                rem = prepared[i]["req"].remaining_s(now)
                if rem is not None:
                    d = now + rem
                    deadline = d if deadline is None else min(deadline, d)
            tasks.append(_Task(
                idxs=idxs, prepared=prepared, responses=responses,
                precond=key[1], deadline=deadline,
            ))
        with self._lock:
            self._stats["dispatched"] += len(tasks)
        threads = [
            threading.Thread(target=self._dispatch, args=(task,), daemon=True)
            for task in tasks
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.session.count_served(responses)
        return [r for r in responses if r is not None]

    def stats(self) -> dict[str, Any]:
        with self._lock:
            out: dict[str, Any] = dict(self._stats)
            out["per_worker"] = dict(self._per_worker)
        out["workers"] = self.workers
        return out

    def close(self) -> None:
        """Stop workers; idempotent, safe to call with work long done."""
        self._procs.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- one group ---------------------------------------------------------

    def _dispatch(self, task: _Task) -> None:
        wid = self._free.get()
        try:
            # the parent's policy chose the family: the child solves that
            sub = [
                dataclasses.replace(task.prepared[i]["req"], precond=task.precond)
                for i in task.idxs
            ]
            self._procs.send(wid, _solve_group, sub)
            # no deadline: wait until the answer or the child's EOF
            timeout = None
            if task.deadline is not None:
                timeout = max(1e-3, task.deadline - time.monotonic())
            if not mp_wait([self._procs.conn(wid)], timeout):  # alive but silent
                self._fault(
                    task, wid, FailureReason.REQUEST_TIMEOUT,
                    "deadline expired mid-solve (worker killed)", "timeouts",
                )
                return
            reply = self._procs.receive(wid)
            if reply is None:
                self._fault(
                    task, wid, FailureReason.WORKER_CRASH,
                    "worker process died mid-solve "
                    f"(exit {self._procs.process(wid).exitcode})",
                    "crashes",
                )
                return
            kind, out, caught = reply
            for message, category in caught:
                warnings.warn(message, category, stacklevel=2)
            if kind == "raised":  # the worker is back in its loop: keep it
                exc = out[0]
                out = [
                    SolveResponse(
                        job_id=r.job_id or "?", ok=False,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    for r in sub
                ]
            for j, i in enumerate(task.idxs):
                task.responses[i] = out[j]
            self.session.record_group_outcome(
                task.prepared[task.idxs[0]]["decision"], task.precond, out
            )
            self._tally(f"p{wid}")
        finally:
            self._free.put(wid)

    def _fail_task(self, task: _Task, reason: FailureReason, detail: str) -> None:
        """Settle every job of a faulted group with a structured answer."""
        for i in task.idxs:
            job_id = task.prepared[i]["job_id"]
            task.responses[i] = rejection_response(job_id, reason, detail)
            if self.admission is not None:
                self.admission.quarantine(
                    QuarantineRecord(job_id=job_id, reason=reason.value, detail=detail)
                )

    def _tally(self, worker: str) -> None:
        with self._lock:
            self._stats["completed"] += 1
            self._per_worker[worker] = self._per_worker.get(worker, 0) + 1

    def _fault(
        self, task: _Task, wid: int, reason: FailureReason, detail: str, counter: str
    ) -> None:
        """Settle a faulted group and replace its worker."""
        self._fail_task(task, reason, detail)
        with self._lock:
            self._stats[counter] += 1
        if self._procs.closed:
            return
        with self._lock:
            self._stats["replaced_workers"] += 1
        self._procs.replace([wid])
