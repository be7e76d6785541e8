"""JSONL wire format for the solver service.

One request per line, one response per line, plain JSON, no third-party
dependencies.  A request names a model family + scale + penalty +
preconditioner and a right-hand side spec; the response carries solver
outcome, cache accounting, and a digest of the solution (the full vector
only on request — answers can be megabytes).

Request fields (all optional except none — defaults reproduce the
bench default block model)::

    {"id": "job-1", "model": "block", "scale": 0.5, "penalty": 1e6,
     "precond": "sbbic0", "eps": 1e-8, "max_iter": 20000,
     "rhs": "model" | {"seed": 7} | [..ndof floats..],
     "return_x": false,
     "priority": 0, "deadline_s": 30.0}

``rhs: "model"`` uses the assembled load vector; ``{"seed": k}`` a
deterministic standard-normal vector (deduplicated across a coalesced
batch); an explicit list is used verbatim.  An explicit list with any
non-finite entry is rejected here, at the protocol boundary, so a
poisoned payload never reaches the solver.

``priority`` (higher solves first under load) and ``deadline_s`` (a
budget counted from **server receipt** on the server's monotonic clock;
an expired request gets a structured ``REQUEST_TIMEOUT`` answer instead
of an answer) feed the admission controller and worker pool
(:mod:`repro.serve.admission`, :mod:`repro.serve.pool`).

A client may also send ``submitted_at`` (its own wall-clock send time,
e.g. ``time.time()``).  It is recorded verbatim for tracing — client
clocks and the server's monotonic clock share no epoch, so it is
**never** compared against server timestamps or used in deadline
arithmetic.  Deadline accounting is explicitly server-side: queue wait
is measured from the moment the server first takes the request.

A ``chaos`` field ({"kind": "crash"|"wedge", "seconds": s}) is accepted
**only** when the ``REPRO_SERVE_CHAOS`` environment variable is set; it
makes the worker holding the request die or wedge, and exists solely for
the fault-injection harness (``scripts/chaos_serve.py``).
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from repro.precond.families import DEFAULT_FAMILY, PRECONDS
from repro.utils.validate import check_finite_array

_JOB_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,80}$")

MODELS = ("block", "swjapan")

CHAOS_ENV = "REPRO_SERVE_CHAOS"
"""Environment variable gating the ``chaos`` request field (fault
injection for the chaos harness).  Unset = chaos requests are rejected
as unknown fields, so production servers cannot be wedged by a client."""

CHAOS_KINDS = ("crash", "wedge")

MAX_PRIORITY = 100
"""Priorities are clamped to ``[-MAX_PRIORITY, MAX_PRIORITY]`` at the
protocol boundary so a client cannot starve others with 2**63."""


class ProtocolError(ValueError):
    """Malformed request line or unsupported field value."""


@dataclass
class SolveRequest:
    """One solve job as it travels the wire and the journal."""

    job_id: str | None = None
    model: str = "block"
    scale: float = 1.0
    penalty: float = 1e6
    precond: str = DEFAULT_FAMILY
    eps: float = 1e-8
    max_iter: int | None = None
    rhs: Any = "model"
    return_x: bool = False
    priority: int = 0
    deadline_s: float | None = None
    chaos: dict | None = None
    client_submitted_at: float | None = None
    """Client wall-clock send time (the wire's ``submitted_at`` field),
    recorded for tracing only.  A client clock shares no epoch with the
    server's monotonic clock, so this value must never enter deadline
    arithmetic — :meth:`remaining_s` ignores it by construction."""
    submitted_at: float | None = None
    """Server-side monotonic receipt stamp, set once by the queue when
    it first takes the request (admission preserves it rather than
    restamping); transient (never serialized) — deadlines count from
    here, so queue wait is measured from server receipt."""

    def __post_init__(self) -> None:
        if self.job_id is not None:
            self.job_id = str(self.job_id)
            if not _JOB_ID_RE.match(self.job_id):
                raise ProtocolError(
                    f"job id {self.job_id!r} must match [A-Za-z0-9._-]{{1,80}} "
                    "(it names journal files)"
                )
        if self.model not in MODELS:
            raise ProtocolError(f"unknown model {self.model!r} (expected one of {MODELS})")
        if self.precond not in PRECONDS:
            raise ProtocolError(
                f"unknown preconditioner {self.precond!r} (expected one of {PRECONDS})"
            )
        self.scale = float(self.scale)
        self.penalty = float(self.penalty)
        self.eps = float(self.eps)
        for name in ("scale", "penalty", "eps"):
            if not np.isfinite(getattr(self, name)):
                raise ProtocolError(f"{name} must be finite, got {getattr(self, name)}")
        if self.scale <= 0:
            raise ProtocolError(f"scale must be positive, got {self.scale}")
        if self.penalty < 0:
            raise ProtocolError(f"penalty must be non-negative, got {self.penalty}")
        if self.eps <= 0:
            raise ProtocolError(f"eps must be positive, got {self.eps}")
        if self.max_iter is not None:
            self.max_iter = int(self.max_iter)
            if self.max_iter <= 0:
                raise ProtocolError(f"max_iter must be positive, got {self.max_iter}")
        self.priority = int(self.priority)
        if abs(self.priority) > MAX_PRIORITY:
            raise ProtocolError(
                f"priority must be in [-{MAX_PRIORITY}, {MAX_PRIORITY}], "
                f"got {self.priority}"
            )
        if self.deadline_s is not None:
            self.deadline_s = float(self.deadline_s)
            if not np.isfinite(self.deadline_s) or self.deadline_s <= 0:
                raise ProtocolError(
                    f"deadline_s must be a positive finite number, got {self.deadline_s}"
                )
        if self.client_submitted_at is not None:
            self.client_submitted_at = float(self.client_submitted_at)
            if not np.isfinite(self.client_submitted_at):
                raise ProtocolError(
                    "submitted_at must be a finite client wall-clock value, "
                    f"got {self.client_submitted_at}"
                )
        self.return_x = bool(self.return_x)
        self.chaos = _check_chaos(self.chaos)
        self.rhs = _check_rhs(self.rhs)

    # -- wire / journal codecs -------------------------------------------

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> SolveRequest:
        if not isinstance(d, dict):
            raise ProtocolError(f"request must be a JSON object, got {type(d).__name__}")
        unknown = d.keys() - _FIELD_OF.keys()
        if "chaos" in d and not os.environ.get(CHAOS_ENV):
            unknown.add("chaos")
        if unknown:
            raise ProtocolError(f"unknown request fields: {sorted(unknown)}")
        try:
            return cls(**{_FIELD_OF[k]: v for k, v in d.items()})
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ProtocolError):
                raise
            raise ProtocolError(str(exc)) from exc

    @classmethod
    def from_json_line(cls, line: str) -> SolveRequest:
        try:
            d = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(d)

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "model": self.model,
            "scale": self.scale,
            "penalty": self.penalty,
            "precond": self.precond,
            "eps": self.eps,
            "return_x": self.return_x,
        }
        if self.job_id is not None:
            d["id"] = self.job_id
        if self.max_iter is not None:
            d["max_iter"] = self.max_iter
        if self.priority != 0:
            d["priority"] = self.priority
        if self.deadline_s is not None:
            d["deadline_s"] = self.deadline_s
        if self.client_submitted_at is not None:
            d["submitted_at"] = self.client_submitted_at
        if self.chaos is not None:
            d["chaos"] = dict(self.chaos)
        if isinstance(self.rhs, np.ndarray):
            d["rhs"] = self.rhs.tolist()
        else:
            d["rhs"] = self.rhs
        return d

    def remaining_s(self, now: float) -> float | None:
        """Seconds of deadline budget left at monotonic time *now*
        (None = no deadline).  Counted from server receipt
        (:attr:`submitted_at`, a server-monotonic stamp — never the
        client's :attr:`client_submitted_at`); a request the server has
        not yet taken has its full budget."""
        if self.deadline_s is None:
            return None
        start = self.submitted_at if self.submitted_at is not None else now
        return self.deadline_s - (now - start)


# wire name -> SolveRequest field, for every field a request line may
# set: two are renamed on the wire, and the server's receipt stamp (the
# field ``submitted_at``) has no wire name
_WIRE_NAME = {"job_id": "id", "client_submitted_at": "submitted_at"}
_FIELD_OF = {
    _WIRE_NAME.get(f.name, f.name): f.name
    for f in fields(SolveRequest)
    if f.name != "submitted_at"
}


def _check_rhs(rhs: Any) -> Any:
    if isinstance(rhs, str):
        if rhs != "model":
            raise ProtocolError(f"rhs string must be 'model', got {rhs!r}")
        return rhs
    if isinstance(rhs, dict):
        if set(rhs) != {"seed"}:
            raise ProtocolError(f"rhs object must be {{'seed': int}}, got {rhs!r}")
        return {"seed": int(rhs["seed"])}
    if isinstance(rhs, (np.ndarray, list, tuple)):
        try:
            arr = np.asarray(rhs, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"explicit rhs is not numeric: {exc}") from exc
        if arr.ndim != 1:
            raise ProtocolError(f"explicit rhs must be a flat list, got shape {arr.shape}")
        try:
            check_finite_array(arr, "explicit rhs")
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        return arr
    raise ProtocolError(f"unsupported rhs spec: {rhs!r}")


def _check_chaos(chaos: Any) -> dict | None:
    if chaos is None:
        return None
    if not isinstance(chaos, dict) or chaos.get("kind") not in CHAOS_KINDS:
        raise ProtocolError(
            f"chaos must be {{'kind': one of {CHAOS_KINDS}, 'seconds': s}}, "
            f"got {chaos!r}"
        )
    out = {"kind": str(chaos["kind"])}
    unknown = set(chaos) - {"kind", "seconds"}
    if unknown:
        raise ProtocolError(f"unknown chaos fields: {sorted(unknown)}")
    if "seconds" in chaos:
        out["seconds"] = float(chaos["seconds"])
        if out["seconds"] < 0:
            raise ProtocolError("chaos seconds must be >= 0")
    return out


@dataclass
class SolveResponse:
    """Result of one job, including the serving-layer accounting that
    the acceptance gates assert on (setup counter deltas, cache events,
    coalescing width)."""

    job_id: str
    ok: bool
    converged: bool = False
    iterations: int = 0
    relative_residual: float = float("nan")
    ndof: int = 0
    fingerprint: str = ""
    coalesced: int = 1
    wall_seconds: float = 0.0
    cache: dict[str, str] = field(default_factory=dict)
    setups: dict[str, int] = field(default_factory=dict)
    x_sha256: str = ""
    x: np.ndarray | None = None
    return_x: bool = False
    resumed: bool = False
    error: str | None = None
    reason: str | None = None
    """Serving-layer failure classification (a
    :class:`~repro.resilience.taxonomy.FailureReason` value string, e.g.
    ``"overloaded"``, ``"request_timeout"``, ``"worker_crash"``,
    ``"poisoned_payload"``); None for solver-level outcomes."""

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "id": self.job_id,
            "ok": self.ok,
            "converged": self.converged,
            "iterations": self.iterations,
            "relative_residual": self.relative_residual,
            "ndof": self.ndof,
            "fingerprint": self.fingerprint,
            "coalesced": self.coalesced,
            "wall_seconds": self.wall_seconds,
            "cache": dict(self.cache),
            "setups": dict(self.setups),
            "x_sha256": self.x_sha256,
            "resumed": self.resumed,
        }
        if self.return_x and self.x is not None:
            d["x"] = np.asarray(self.x).tolist()
        if self.error is not None:
            d["error"] = self.error
        if self.reason is not None:
            d["reason"] = self.reason
        return d

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict())
