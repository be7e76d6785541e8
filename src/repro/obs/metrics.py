"""Labeled metrics registry: counters, gauges, histograms.

Absorbs the reproduction's four generations of ad-hoc tallies —
exchange/allreduce counts, ``icfact`` symbolic/numeric setup
counters, pivot-nudge counts, CG iteration/rollback/fallback events —
into one schema:

- a metric is identified by a dotted name (``"comm.bytes"``,
  ``"cg.iterations"``, ``"setup.numeric"``) plus a label set
  (``precond="SB-BIC(0)"``, ``rank=3``, ``reason="COMM_FAULT"``);
- **counters** accumulate (message censuses, iteration counts),
- **gauges** hold the latest value (current penalty, residual),
- **histograms** keep a bounded summary (count/total/min/max) of an
  observed distribution (per-exchange bytes, solve seconds) — summary
  only, so a million-iteration solve costs O(1) memory per metric.

The transports' exchange/allreduce counters (from which
:func:`~repro.parallel.comm.census` computes the paper-comparable
message census) and ``factorization_stats()`` are *forwarded* into the
active registry, so the unified trace carries the same numbers (the
agreement is test-enforced).  Set-up phases are counted here only
(``setup.symbolic`` / ``setup.numeric``).

stdlib only; thread-safe via one lock (metric updates are far off the
numeric hot path — they fire per exchange / per iteration, not per DOF).
"""

from __future__ import annotations

import threading

__all__ = ["MetricsRegistry"]


def _key(labels: dict) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _HistSummary:
    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.total / self.count if self.count else None,
        }


class MetricsRegistry:
    """Process-local store of labeled counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, dict[tuple, float]] = {}
        self._gauges: dict[str, dict[tuple, float]] = {}
        self._hists: dict[str, dict[tuple, _HistSummary]] = {}

    # -- updates ---------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add *value* to the counter ``name{labels}`` (creating it at 0)."""
        k = _key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[k] = series.get(k, 0.0) + value

    def set(self, name: str, value: float, **labels) -> None:
        """Set the gauge ``name{labels}`` to *value*."""
        with self._lock:
            self._gauges.setdefault(name, {})[_key(labels)] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Fold *value* into the histogram summary ``name{labels}``."""
        k = _key(labels)
        with self._lock:
            series = self._hists.setdefault(name, {})
            h = series.get(k)
            if h is None:
                h = series[k] = _HistSummary()
            h.observe(float(value))

    # -- reads -----------------------------------------------------------

    def get(self, name: str, **labels) -> float:
        """Current value of a counter (0.0 when never incremented) or,
        failing that, a gauge; raises ``KeyError`` for unknown gauges."""
        k = _key(labels)
        with self._lock:
            if name in self._counters or name not in self._gauges:
                return self._counters.get(name, {}).get(k, 0.0)
            return self._gauges[name][k]

    def total(self, name: str) -> float:
        """Counter value summed over every label combination."""
        with self._lock:
            return sum(self._counters.get(name, {}).values())

    def histogram(self, name: str, **labels) -> dict | None:
        """Summary dict of a histogram series, or None if absent."""
        with self._lock:
            h = self._hists.get(name, {}).get(_key(labels))
            return None if h is None else h.to_dict()

    def snapshot(self) -> dict:
        """JSON-safe dump of every metric, labels spelled out."""

        def rows(series, render):
            return [
                {"labels": dict(k), "value": render(v)} for k, v in series.items()
            ]

        with self._lock:
            return {
                "counters": {
                    n: rows(s, float) for n, s in self._counters.items()
                },
                "gauges": {n: rows(s, float) for n, s in self._gauges.items()},
                "histograms": {
                    n: [
                        {"labels": dict(k), "value": h.to_dict()}
                        for k, h in s.items()
                    ]
                    for n, s in self._hists.items()
                },
            }

    def names(self) -> list[str]:
        with self._lock:
            return sorted(
                set(self._counters) | set(self._gauges) | set(self._hists)
            )
