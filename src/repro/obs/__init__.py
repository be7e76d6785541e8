"""Unified observability layer: spans, events, trace export.

One solve — one structured trace.  The paper's entire evaluation rests
on instrumentation (per-phase timings, message/allreduce censuses,
iteration counts feeding Tables 1-4 and Figs. 16-32); this package gives
the reproduction a single substrate for the timed part of it.  Every
fact has one record: a span (with the attributes it sets at exit), an
event, or a counter the program keeps anyway (the transports' message
census, the factor's ``factorization_stats()``, the serving layer's
``stats()``) — never a second tally of the same thing.

Two pieces (DESIGN.md section 11):

- :class:`~repro.obs.core.Tracer` / :class:`~repro.obs.core.Span` — a
  hierarchical, thread-safe span tracer with a context-manager API;
- exporters (:mod:`repro.obs.export`) — JSON-lines, Chrome trace-event
  JSON, and a terminal summary table.

Usage::

    from repro import obs

    with obs.observe() as tracer:
        res = solve_nonlinear_contact(...)
    print(obs.summary_table(tracer))
    obs.export_chrome_trace(tracer, "trace.json")

Disabled path
-------------
Observability is **off by default** and meant to be near-free when off.
Every helper below (:func:`span`, :func:`event`, :func:`record_span`)
collapses to a single module-global ``is None`` check when no tracer is
active, and instrumented loops capture :func:`session` once so their
per-iteration cost is one attribute test.  That cost is not measured
by any gate (ROADMAP, "Observability with a bounded cost").
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

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

__all__ = [
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
    "observe",
    "record_span",
    "session",
    "span",
    "summary_table",
]


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

_SESSION: Tracer | None = None
_LOCK = threading.Lock()


def enable(tracer: Tracer | None = None) -> Tracer:
    """Start (or install) a tracer; returns the active one."""
    global _SESSION
    with _LOCK:
        if tracer is None:
            tracer = Tracer()
        _SESSION = tracer
    return tracer


def disable() -> Tracer | None:
    """Stop observing; returns the tracer that was active, if any."""
    global _SESSION
    with _LOCK:
        tracer, _SESSION = _SESSION, None
    return tracer


def session() -> Tracer | None:
    """The active tracer, or None when observability is off.

    Hot loops should call this once and branch on the result instead of
    going through the helpers per iteration.
    """
    return _SESSION


@contextmanager
def observe(tracer: Tracer | None = None):
    """Scoped enable/disable; restores any previously active tracer."""
    global _SESSION
    prev = _SESSION
    active = enable(tracer)
    try:
        yield active
    finally:
        with _LOCK:
            _SESSION = prev


# -- thin helpers over the active tracer ---------------------------------


def span(name: str, **attrs):
    """Open a span on the active tracer (a no-op span when disabled)."""
    s = _SESSION
    if s is None:
        return _NULL_SPAN
    return s.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """Record a point event on the active tracer (no-op when disabled)."""
    s = _SESSION
    if s is not None:
        s.event(name, **attrs)


def record_span(name: str, seconds: float, phases=(), **attrs) -> None:
    """Attach an externally-timed region as a completed span, with its
    consecutive ``(name, seconds)`` *phases* as child spans."""
    s = _SESSION
    if s is not None:
        s.record_span(name, seconds, phases, **attrs)
