"""Unified observability layer: spans, metrics, trace export.

One solve — one structured trace.  The paper's entire evaluation rests
on instrumentation (per-phase timings, message/allreduce censuses,
iteration counts feeding Tables 1-4 and Figs. 16-32); this package gives
the reproduction a single substrate for all of it instead of the four
generations of ad-hoc counters that grew around ``CommLog``, a
process-wide set-up census, ``build_seconds`` attributes and bare
``Timer``\\ s.

Three pieces (DESIGN.md section 11):

- :class:`~repro.obs.core.Tracer` / :class:`~repro.obs.core.Span` — a
  hierarchical, thread-safe span tracer with a context-manager API;
- :class:`~repro.obs.metrics.MetricsRegistry` — labeled counters,
  gauges and histogram summaries;
- exporters (:mod:`repro.obs.export`) — JSON-lines, Chrome trace-event
  JSON, and a terminal summary table.

Usage::

    from repro import obs

    with obs.observe() as sess:
        res = solve_nonlinear_contact(...)
    print(obs.summary_table(sess.tracer, sess.metrics))
    obs.export_chrome_trace(sess.tracer, "trace.json", sess.metrics)

Disabled-path contract
----------------------
Observability is **off by default** and must stay near-free when off
(< 2 % on the CG hot path, bench-enforced).  Every helper below
(:func:`span`, :func:`event`, :func:`metric_inc`, ...) collapses to a
single module-global ``is None`` check when no session is active, and
instrumented loops capture :func:`session` once so their per-iteration
cost is one attribute test.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.core import Span, Tracer
from repro.obs.export import (
    chrome_trace_events,
    export_chrome_trace,
    export_jsonl,
    load_jsonl_records,
    merge_rank_traces,
    policy_table,
    rank_time_table,
    requests_table,
    summary_table,
)
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "MetricsRegistry",
    "ObsSession",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "disable",
    "enable",
    "event",
    "export_chrome_trace",
    "export_jsonl",
    "load_jsonl_records",
    "merge_rank_traces",
    "policy_table",
    "rank_time_table",
    "requests_table",
    "metric_inc",
    "metric_observe",
    "metric_set",
    "observe",
    "record_span",
    "session",
    "span",
    "summary_table",
]


@dataclass
class ObsSession:
    """One enabled observability window: a tracer plus a registry."""

    tracer: Tracer
    metrics: MetricsRegistry

    def summary(self) -> str:
        return summary_table(self.tracer, self.metrics)


class _NullSpan:
    """Disabled-path stand-in for :class:`Span`: every operation no-ops."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()

_SESSION: ObsSession | None = None
_LOCK = threading.Lock()


def enable(sess: ObsSession | None = None) -> ObsSession:
    """Start (or install) a session; returns the active one."""
    global _SESSION
    with _LOCK:
        if sess is None:
            sess = ObsSession(tracer=Tracer(), metrics=MetricsRegistry())
        _SESSION = sess
    return sess


def disable() -> ObsSession | None:
    """Stop observing; returns the session that was active, if any."""
    global _SESSION
    with _LOCK:
        sess, _SESSION = _SESSION, None
    return sess


def session() -> ObsSession | None:
    """The active session, or None when observability is off.

    Hot loops should call this once and branch on the result instead of
    going through the helpers per iteration.
    """
    return _SESSION


@contextmanager
def observe(sess: ObsSession | None = None):
    """Scoped enable/disable; restores any previously active session."""
    global _SESSION
    prev = _SESSION
    active = enable(sess)
    try:
        yield active
    finally:
        with _LOCK:
            _SESSION = prev


# -- thin helpers over the active session --------------------------------


def span(name: str, **attrs):
    """Open a span on the active tracer (a no-op span when disabled)."""
    s = _SESSION
    if s is None:
        return _NULL_SPAN
    return s.tracer.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """Record a point event on the active tracer (no-op when disabled)."""
    s = _SESSION
    if s is not None:
        s.tracer.event(name, **attrs)


def record_span(name: str, seconds: float, phases=(), **attrs) -> None:
    """Attach an externally-timed region as a completed span, with its
    consecutive ``(name, seconds)`` *phases* as child spans."""
    s = _SESSION
    if s is not None:
        s.tracer.record_span(name, seconds, phases, **attrs)


def metric_inc(name: str, value: float = 1.0, **labels) -> None:
    s = _SESSION
    if s is not None:
        s.metrics.inc(name, value, **labels)


def metric_set(name: str, value: float, **labels) -> None:
    s = _SESSION
    if s is not None:
        s.metrics.set(name, value, **labels)


def metric_observe(name: str, value: float, **labels) -> None:
    s = _SESSION
    if s is not None:
        s.metrics.observe(name, value, **labels)
