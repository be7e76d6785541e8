"""Outcome tally: fingerprint -> family -> what the solves it led cost.

Every policy-resolved solve is folded into per-``(fingerprint, family)``
aggregates — runs, convergence failures, wall seconds and iterations.
Nothing decides from the tally (the cost model ranks every ``auto``
request, :mod:`repro.policy.cost`); it is the census behind
``SolverSession.stats()`` and the serve benchmark's count of which
family the policy chose.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

__all__ = ["OutcomeStats", "PolicyHistory"]


@dataclass
class OutcomeStats:
    """Aggregate of every recorded attempt of one family on one class."""

    runs: int = 0
    failures: int = 0
    total_seconds: float = 0.0
    total_iterations: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "runs": self.runs,
            "failures": self.failures,
            "total_seconds": self.total_seconds,
            "total_iterations": self.total_iterations,
        }


@dataclass
class PolicyHistory:
    """Thread-safe ``fingerprint -> family -> OutcomeStats`` tally."""

    _data: dict[str, dict[str, OutcomeStats]] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(
        self,
        fingerprint: str,
        family: str,
        *,
        seconds: float,
        converged: bool,
        iterations: int = 0,
    ) -> None:
        with self._lock:
            stats = self._data.setdefault(fingerprint, {}).setdefault(
                family, OutcomeStats()
            )
            stats.runs += 1
            stats.total_seconds += float(seconds)
            stats.total_iterations += int(iterations)
            if not converged:
                stats.failures += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            return {"outcomes": {
                fp: {fam: st.to_dict() for fam, st in by_fam.items()}
                for fp, by_fam in self._data.items()
            }}
