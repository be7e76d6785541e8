"""Worker pool for the solver service: concurrent fingerprint groups,
deadlines, fault isolation, and worker replacement.

The coalescing batch pipeline (:class:`~repro.serve.session.SolverSession`)
already partitions a batch into *independent* groups — distinct operator
fingerprint / preconditioner / stopping criteria.  This module dispatches
those groups to forked worker processes instead of a serial loop, which
is the whole concurrency story: parallelism across groups, never inside
one, so pooled answers stay bit-identical to a serial run (each child
runs the exact serial solve path on its own lazy
:class:`~repro.serve.session.SolverSession`).

The parent prepares and groups the batch — resolving ``precond="auto"``
to a family with its own policy — and ships each group's requests with
that family filled in, so a child never decides again; the group's
outcome comes back in its responses and is recorded in the parent's
policy history.  One dispatch thread per group polls the child's pipe up
to the group's deadline: a child that dies mid-solve → ``WORKER_CRASH``
+ respawn; one still alive but silent at the deadline → SIGKILL +
respawn + ``REQUEST_TIMEOUT``.  Threads would share the parent's caches
but not the CPU (``_sparsetools`` holds the GIL) and could not stop a
wedged solve; forked children are kill-able and crash-isolated at the
price of per-child set-up caches.

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
import stat
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.resilience.taxonomy import FailureReason
from repro.serve.admission import AdmissionController, QuarantineRecord, rejection_response
from repro.serve.protocol import SolveRequest, SolveResponse
from repro.serve.session import SolverSession

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


class _ProcSlot:
    """One forked worker process + its parent-side pipe end."""

    def __init__(self, ctx, wid: int) -> None:
        self.wid = wid
        parent, child = ctx.Pipe()
        self.conn = parent
        self.proc = ctx.Process(
            target=_process_worker_main, args=(child,),
            name=f"serve-worker-{wid}", daemon=True,
        )
        self.proc.start()
        child.close()


def _close_inherited_sockets(keep: frozenset[int]) -> None:
    """Drop every socket fd a forked worker inherited except *keep*.

    A worker respawned mid-serve forks off a parent that is holding live
    client connections (and the listening socket); if the child keeps
    those fds open, a client never sees EOF after its handler closes the
    connection — it hangs until its own timeout.  Only sockets are
    closed (the dispatch pipe is a socketpair and is in *keep*); plain
    pipes like multiprocessing's resource tracker are left alone."""
    try:
        fds = [int(f) for f in os.listdir("/proc/self/fd")]
    except OSError:  # no /proc (non-Linux): nothing portable to do
        return
    for fd in fds:
        if fd <= 2 or fd in keep:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def _process_worker_main(conn) -> None:
    """Child loop: receive a group's requests, solve, send responses.

    The session is built lazily on first work.  Chaos is enacted here
    so the *parent* observes a genuine child death / silence, exercising
    the same classification path a real fault would take."""
    _close_inherited_sockets(frozenset({conn.fileno()}))
    session: SolverSession | None = None
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        reqs: list[SolveRequest] = msg
        for r in reqs:
            if r.chaos is not None:
                if r.chaos["kind"] == "crash":
                    os._exit(19)
                time.sleep(float(r.chaos.get("seconds", _WEDGE_DEFAULT_S)))
        if session is None:
            session = SolverSession()
        try:
            out = session.solve_batch(list(reqs))
        except Exception as exc:  # keep the worker alive for the next group
            out = [
                SolveResponse(
                    job_id=r.job_id or "?", ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
                for r in reqs
            ]
        for resp in out:
            if not resp.return_x:
                resp.x = None  # don't ship megabytes the client didn't ask for
        try:
            conn.send(out)
        except (BrokenPipeError, OSError):
            return


class WorkerPool:
    """Dispatch independent solve groups to forked worker processes.

    Drop-in for ``SolverSession.solve_batch`` from the queue's point of
    view: same request-order responses, same coalescing semantics, plus
    deadlines and fault isolation.  ``close()`` is idempotent.
    """

    def __init__(
        self,
        session: SolverSession,
        workers: int = 2,
        admission: AdmissionController | None = None,
        solve_timeout_s: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"pool needs >= 1 worker, got {workers}")
        if solve_timeout_s is not None and solve_timeout_s <= 0:
            raise ValueError(f"solve_timeout_s must be positive, got {solve_timeout_s}")
        self.session = session
        self.workers = int(workers)
        self.admission = admission
        self.solve_timeout_s = solve_timeout_s
        self._lock = threading.Lock()
        self._closed = False
        self._stats = {
            "dispatched": 0, "completed": 0, "timeouts": 0,
            "crashes": 0, "replaced_workers": 0,
        }
        self._per_worker: dict[str, int] = {}
        import multiprocessing as mp

        self._ctx = mp.get_context("fork")
        self._free: _queue.Queue = _queue.Queue()
        self._slots: dict[int, _ProcSlot] = {}
        for wid in range(self.workers):
            self._slots[wid] = _ProcSlot(self._ctx, wid)
            self._free.put(wid)
        obs.metric_set("serve.pool.workers", self.workers)

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
            if deadline is None and self.solve_timeout_s is not None:
                deadline = now + self.solve_timeout_s
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
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for slot in self._slots.values():
            try:
                slot.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for slot in self._slots.values():
            slot.proc.join(timeout=2.0)
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join(timeout=2.0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- one group ---------------------------------------------------------

    def _dispatch(self, task: _Task) -> None:
        wid = self._free.get()
        try:
            slot = self._slots[wid]
            # the parent's policy chose the family: the child solves that
            sub = [
                dataclasses.replace(task.prepared[i]["req"], precond=task.precond)
                for i in task.idxs
            ]
            try:
                slot.conn.send(sub)
                # no deadline: wait until the answer or the child's EOF
                timeout = None
                if task.deadline is not None:
                    timeout = max(1e-3, task.deadline - time.monotonic())
                answered = slot.conn.poll(timeout)
                out = slot.conn.recv() if answered else None
            except (EOFError, OSError):
                self._crash(task, wid, "worker pipe broke mid-solve")
                return
            if not answered and not slot.proc.is_alive():
                self._crash(
                    task, wid,
                    f"worker process died mid-solve (exit {slot.proc.exitcode})",
                )
                return
            if not answered:  # alive but silent at the deadline
                slot.proc.kill()
                slot.proc.join(timeout=2.0)
                self._fail_task(
                    task, FailureReason.REQUEST_TIMEOUT,
                    "deadline expired mid-solve (worker killed)",
                )
                with self._lock:
                    self._stats["timeouts"] += 1
                obs.metric_inc("serve.pool.timeouts")
                self._respawn(wid)
                return
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
        obs.metric_inc("serve.pool.groups", worker=worker)

    def _crash(self, task: _Task, wid: int, detail: str) -> None:
        self._fail_task(task, FailureReason.WORKER_CRASH, detail)
        with self._lock:
            self._stats["crashes"] += 1
        obs.metric_inc("serve.pool.crashes")
        self._respawn(wid)

    def _respawn(self, wid: int) -> None:
        with self._lock:
            if self._closed:
                return
            self._stats["replaced_workers"] += 1
        old = self._slots[wid]
        try:
            old.conn.close()
        except OSError:
            pass
        if old.proc.is_alive():
            old.proc.kill()
            old.proc.join(timeout=2.0)
        self._slots[wid] = _ProcSlot(self._ctx, wid)
        obs.metric_inc("serve.pool.replaced")
