"""Admission control for the solver service: bounded queues, deadlines,
payload budgets, and quarantine accounting.

The serving tentpole's back-pressure story lives here.  Every request
passes two gates:

1. **Submit screening** (:meth:`AdmissionController.screen_submit`) —
   runs synchronously in the front end before a job is created.  A full
   queue answers ``OVERLOADED`` immediately (bounded depth is the
   back-pressure signal: clients see the rejection in milliseconds
   instead of queueing behind minutes of work), and a payload over the
   size budget answers ``POISONED_PAYLOAD`` before it is journaled or
   copied anywhere.
2. **Dispatch screening** (:meth:`AdmissionController.screen_dispatch`)
   — runs when the queue hands jobs to a solver.  A request whose
   deadline already expired while queued answers ``REQUEST_TIMEOUT``
   without burning a worker on an answer nobody is waiting for.

Both produce *structured terminal responses* (a
:class:`~repro.serve.protocol.SolveResponse` with ``ok=False`` and a
``reason`` drawn from the :class:`~repro.resilience.taxonomy.FailureReason`
taxonomy), never exceptions: an overloaded server keeps answering.

Requests that are refused, wedge past their deadline, or crash a worker
are recorded in a bounded quarantine ring
(:meth:`AdmissionController.quarantine`) so overload and poisoning are
observable in ``queue.stats()`` and ``repro trace --requests`` instead
of silent.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.resilience.taxonomy import FailureReason
from repro.serve.protocol import SolveRequest, SolveResponse

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "QuarantineRecord",
    "rejection_response",
]


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs of the admission front.

    ``max_queue_depth`` bounds jobs that are pending or running (the
    back-pressure trigger); ``max_payload_bytes`` bounds one request's
    explicit RHS payload; ``default_deadline_s`` applies to requests
    that name no deadline of their own (None = no implicit deadline).
    """

    max_queue_depth: int = 256
    max_payload_bytes: int = 32 << 20
    default_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_payload_bytes < 1:
            raise ValueError(
                f"max_payload_bytes must be >= 1, got {self.max_payload_bytes}"
            )
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValueError(
                f"default_deadline_s must be positive, got {self.default_deadline_s}"
            )


QUARANTINE_KEEP = 64
"""How many of the latest quarantine records the ring keeps."""


@dataclass
class QuarantineRecord:
    """One isolated request: who, why, and what the fault looked like."""

    job_id: str
    reason: str
    detail: str = ""
    timestamp: float = field(default_factory=time.time)

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "reason": self.reason,
            "detail": self.detail,
            "timestamp": self.timestamp,
        }


def rejection_response(
    job_id: str, reason: FailureReason, detail: str
) -> SolveResponse:
    """A structured terminal answer for a request the service refused."""
    return SolveResponse(
        job_id=job_id, ok=False, error=detail, reason=reason.value
    )


class AdmissionController:
    """Thread-safe admission front shared by every connection thread.

    Counters (all monotonic, reported by :meth:`stats`):

    - ``admitted`` — requests that became pending jobs;
    - ``rejected[reason]`` — refused at submit (``overloaded``,
      ``poisoned_payload``) or dispatch (``request_timeout``);
    - ``deadline_expired`` — the subset of rejections where a deadline
      ran out while the job sat in the queue;
    - ``quarantined`` — requests isolated after a worker-level fault
      (crash/wedge), recorded by the pool via :meth:`quarantine`.
    """

    def __init__(self, policy: AdmissionPolicy | None = None) -> None:
        self.policy = policy if policy is not None else AdmissionPolicy()
        self._lock = threading.Lock()
        self.admitted = 0
        self.rejected: dict[str, int] = {}
        self.deadline_expired = 0
        self._quarantine: deque[QuarantineRecord] = deque(maxlen=QUARANTINE_KEEP)
        self.quarantined = 0

    # -- screening --------------------------------------------------------

    def screen_submit(
        self, request: SolveRequest, queue_depth: int
    ) -> SolveResponse | None:
        """Refuse or admit at the front door; None = admitted.

        Also applies the policy's default deadline and — only when the
        queue has not already stamped one — a server-monotonic receipt
        time, so dispatch screening and the pool measure the same budget
        from the moment the server first took the request.  An existing
        stamp is preserved: restamping here would silently reset the
        deadline clock of a request that waited to be screened.
        """
        job_id = request.job_id or "?"
        payload = request.rhs
        if hasattr(payload, "nbytes") and payload.nbytes > self.policy.max_payload_bytes:
            return self._reject(
                job_id, FailureReason.POISONED_PAYLOAD,
                f"rhs payload is {payload.nbytes} bytes, over the "
                f"{self.policy.max_payload_bytes}-byte admission budget",
            )
        if queue_depth >= self.policy.max_queue_depth:
            return self._reject(
                job_id, FailureReason.OVERLOADED,
                f"queue depth {queue_depth} at the {self.policy.max_queue_depth} "
                "bound; retry later",
            )
        if request.deadline_s is None:
            request.deadline_s = self.policy.default_deadline_s
        if request.submitted_at is None:
            request.submitted_at = time.monotonic()
        with self._lock:
            self.admitted += 1
        return None

    def screen_dispatch(self, request: SolveRequest) -> SolveResponse | None:
        """Refuse a job whose deadline expired in the queue; None = run it."""
        remaining = request.remaining_s(time.monotonic())
        if remaining is not None and remaining <= 0:
            with self._lock:
                self.deadline_expired += 1
            return self._reject(
                request.job_id or "?", FailureReason.REQUEST_TIMEOUT,
                f"deadline of {request.deadline_s:g}s expired "
                f"{-remaining:.3g}s before dispatch",
            )
        return None

    def _reject(
        self, job_id: str, reason: FailureReason, detail: str
    ) -> SolveResponse:
        with self._lock:
            self.rejected[reason.value] = self.rejected.get(reason.value, 0) + 1
        obs.record_span(
            "serve.job", 0.0,
            job_id=job_id, reason=reason.value, converged=False, rejected=True,
        )
        return rejection_response(job_id, reason, detail)

    # -- quarantine -------------------------------------------------------

    def quarantine(self, record: QuarantineRecord) -> None:
        """Record a fault-isolated request (worker crash/wedge)."""
        with self._lock:
            self.quarantined += 1
            self._quarantine.append(record)

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "admitted": self.admitted,
                "rejected": dict(self.rejected),
                "deadline_expired": self.deadline_expired,
                "quarantined": self.quarantined,
                "quarantine_tail": [r.to_dict() for r in list(self._quarantine)[-5:]],
                "policy": {
                    "max_queue_depth": self.policy.max_queue_depth,
                    "max_payload_bytes": self.policy.max_payload_bytes,
                    "default_deadline_s": self.policy.default_deadline_s,
                },
            }
