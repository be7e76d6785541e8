"""Failure taxonomy and structured solve-event reporting.

The paper's Table 2 reports "No Conv." outcomes without distinguishing a
breakdown (indefinite ``p^T A p``), a NaN blow-up, or plain iteration
exhaustion — and large-penalty contact systems (lambda up to ``1e6 E``)
produce all three.  This module gives every failure a name
(:class:`FailureReason`) and every solve a structured event trail
(:class:`SolveReport`) recording each detection, retry and recovery
action, so a non-converged solve is diagnosable instead of a bare
``converged=False``.

Kept nearly dependency-free (stdlib plus the stdlib-only
:mod:`repro.obs` helpers) so the solver, preconditioner and
communication layers can all import it without cycles.  When an
observability session is active, every recorded event is mirrored into
the unified trace as a ``report.<kind>`` trace event carrying its stage;
the :class:`SolveReport` trail remains the authoritative, always-on log.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from enum import Enum

from repro.obs import event as _obs_event


class FailureReason(Enum):
    """Why a solve stopped — including the one non-failure: it converged.

    Despite the name (kept for API continuity), ``CONVERGED`` is a member
    so a finished :class:`~repro.solvers.cg.CGResult` carries an explicit
    tag instead of ``reason=None``."""

    CONVERGED = "converged"
    """Not a failure: the solve met its tolerance."""

    BREAKDOWN_INDEFINITE = "breakdown_indefinite"
    """``p^T A p <= 0``: the operator or preconditioner lost positive
    definiteness (the classic large-penalty IC(0) collapse of Table 2)."""

    NAN_DETECTED = "nan_detected"
    """A non-finite value appeared in the iteration (overflow / poison)."""

    STAGNATION = "stagnation"
    """The relative residual stopped improving over a sliding window."""

    MAX_ITER = "max_iter"
    """Iteration cap reached without meeting the tolerance."""

    SETUP_PIVOT_FAILURE = "setup_pivot_failure"
    """Preconditioner factorization hit singular / nudged pivots."""

    COMM_FAULT = "comm_fault"
    """A halo exchange delivered inconsistent ghost values (owner/ghost
    disagreement, NaN payload, or corrupted bits)."""

    RANK_FAILURE = "rank_failure"
    """A rank stopped responding entirely (process death / lost node):
    its worker is gone, or an injected kill fired."""

    COMM_TIMEOUT = "comm_timeout"
    """A communication operation outlived its wait budget while the
    peer process stayed alive (overloaded node, paging storm, stalled
    NIC).  Unlike ``RANK_FAILURE`` no state was lost, so the recovery is a
    checkpoint rollback without a respawn."""

    OVERLOADED = "overloaded"
    """The serving layer refused the request at admission: the bounded
    job queue was full (back-pressure, not a solver fault).  The client
    should retry later, ideally with jitter."""

    REQUEST_TIMEOUT = "request_timeout"
    """A serving request missed its deadline — either it expired while
    queued behind other work, or the worker solving it wedged past the
    deadline and was abandoned/killed.  The solve never produced an
    answer; retrying with a fresh deadline is safe."""

    WORKER_CRASH = "worker_crash"
    """A pool worker died (or raised outside the solver's own error
    handling) while holding the request.  The pool respawned the worker
    and quarantined the request; other in-flight groups were unaffected."""

    POISONED_PAYLOAD = "poisoned_payload"
    """The request payload itself was rejected before any solver code
    ran: non-finite right-hand side, mismatched shape, or a payload over
    the admission size budget."""

    def __str__(self) -> str:  # "BREAKDOWN_INDEFINITE", table-friendly
        return self.name


class RankFailure(RuntimeError):
    """A rank is dead — its worker process is gone, or an injected kill
    fired — and the solve must recover or abort.

    Raised by both transports (:mod:`repro.parallel.comm`,
    :mod:`repro.parallel.transport`); caught by
    :func:`~repro.parallel.distributed.parallel_cg`, which maps it to
    :attr:`FailureReason.RANK_FAILURE` and attempts local recovery.
    Lives here so the solver and comm layers can both import it without
    a cycle."""

    def __init__(self, rank: int, probes: int) -> None:
        super().__init__(
            f"rank {rank} unresponsive after {probes} heartbeat probe(s)"
        )
        self.rank = int(rank)
        self.probes = int(probes)


class CommTimeout(RuntimeError):
    """A communication operation exhausted its wait budget while every
    peer process was still alive.

    The transport layer's complement to :class:`RankFailure`: the peers
    are alive (liveness probes succeed) but the operation never completed
    inside the process transport's ``budget`` — an overloaded or wedged peer, not
    a dead one.  No rank state was lost, so the caller's correct response
    is a checkpoint rollback and re-execution, not a respawn.  Raised by
    the process transport's rank workers and driver; caught by
    :func:`~repro.parallel.distributed.parallel_cg`, which maps it to
    :attr:`FailureReason.COMM_TIMEOUT`."""

    def __init__(self, op: str, pending: tuple[int, ...], elapsed: float) -> None:
        ranks = ",".join(str(r) for r in pending) or "?"
        super().__init__(
            f"{op} incomplete after {elapsed:.3g}s "
            f"(rank(s) {ranks} alive but silent)"
        )
        self.op = op
        self.pending = tuple(int(r) for r in pending)
        self.elapsed = float(elapsed)

    def __reduce__(self):
        # a rank worker sends its timeout to the driver through a pipe
        return CommTimeout, (self.op, self.pending, self.elapsed)


class PivotNudgeWarning(RuntimeWarning):
    """A factorization pivot was singular and had to be regularized.

    SETUP_PIVOT_FAILURE-grade: the factorization survives, but the
    resulting preconditioner may be of poor quality — callers that care
    (e.g. the fallback chain) should escalate rather than trust it."""


@dataclass
class SolveEvent:
    """One entry in a :class:`SolveReport` trail."""

    kind: str
    """``"detect"`` (a failure was observed), ``"retry"`` (the same stage
    is re-attempted), ``"escalate"`` (falling to the next ladder stage),
    ``"recover"`` (a retry/escalation succeeded) or ``"info"``."""

    stage: str
    """Where it happened — a preconditioner name, ``"cg"``,
    ``"parallel_cg"``, ``"alm"``, ..."""

    reason: FailureReason | None = None
    iteration: int | None = None
    detail: str = ""
    data: dict = field(default_factory=dict)
    timestamp: float = field(default_factory=time.perf_counter)

    def __str__(self) -> str:
        bits = [self.kind, self.stage]
        if self.reason is not None:
            bits.append(str(self.reason))
        if self.iteration is not None:
            bits.append(f"it={self.iteration}")
        if self.detail:
            bits.append(self.detail)
        return " | ".join(bits)

    def to_dict(self) -> dict:
        """JSON-safe dict (numpy scalars/arrays in ``data`` are coerced)."""
        return {
            "kind": self.kind,
            "stage": self.stage,
            "reason": None if self.reason is None else self.reason.value,
            "iteration": None if self.iteration is None else int(self.iteration),
            "detail": self.detail,
            "data": {k: _jsonify(v) for k, v in self.data.items()},
            "timestamp": float(self.timestamp),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SolveEvent":
        return cls(
            kind=d["kind"],
            stage=d["stage"],
            reason=None if d.get("reason") is None else FailureReason(d["reason"]),
            iteration=d.get("iteration"),
            detail=d.get("detail", ""),
            data=dict(d.get("data", {})),
            timestamp=float(d.get("timestamp", 0.0)),
        )


def _jsonify(v):
    """Coerce numpy scalars / arrays so event data survives ``json.dumps``."""
    if hasattr(v, "tolist"):  # numpy array or scalar
        return v.tolist()
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    if isinstance(v, dict):
        return {k: _jsonify(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonify(x) for x in v]
    return str(v)


@dataclass
class SolveReport:
    """Structured event log of one (possibly multi-stage) solve.

    Append-only; shared by the linear solver, the preconditioner fallback
    chain and the nonlinear driver, so the full retry trail of a
    recovered solve reads in one place."""

    events: list[SolveEvent] = field(default_factory=list)

    def record(
        self,
        kind: str,
        stage: str,
        reason: FailureReason | None = None,
        *,
        iteration: int | None = None,
        detail: str = "",
        **data,
    ) -> SolveEvent:
        ev = SolveEvent(
            kind=kind,
            stage=stage,
            reason=reason,
            iteration=iteration,
            detail=detail,
            data=data,
        )
        self.events.append(ev)
        _obs_event(
            f"report.{kind}",
            stage=stage,
            reason=None if reason is None else str(reason),
            iteration=iteration,
            detail=detail,
        )
        return ev

    # -- filtered views -------------------------------------------------

    def detections(self) -> list[SolveEvent]:
        return [e for e in self.events if e.kind == "detect"]

    def retries(self) -> list[SolveEvent]:
        return [e for e in self.events if e.kind in ("retry", "escalate")]

    def recoveries(self) -> list[SolveEvent]:
        return [e for e in self.events if e.kind == "recover"]

    # -- serialization (used by the ALM checkpoint journal) -------------

    def to_json(self) -> str:
        """Serialize the full trail; inverse of :meth:`from_json`.

        Arrays inside event ``data`` come back as plain lists — the trail
        is a log, not a numeric payload, so that round-trip is lossy only
        in dtype, never in content."""
        return json.dumps({"events": [e.to_dict() for e in self.events]})

    @classmethod
    def from_json(cls, text: str) -> "SolveReport":
        payload = json.loads(text)
        if not isinstance(payload, dict) or "events" not in payload:
            raise ValueError("not a serialized SolveReport (no 'events' key)")
        report = cls()
        report.events = [SolveEvent.from_dict(d) for d in payload["events"]]
        return report

    def __len__(self) -> int:
        return len(self.events)

    def __str__(self) -> str:
        if not self.events:
            return "SolveReport(empty)"
        lines = [f"SolveReport({len(self.events)} events)"]
        lines += [f"  {i:3d}. {e}" for i, e in enumerate(self.events)]
        return "\n".join(lines)
