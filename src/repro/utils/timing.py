"""Wall-clock timing helpers used by solvers and benchmark harnesses."""

from __future__ import annotations

import time


class Timer:
    """Accumulating wall-clock timer.

    Usage::

        t = Timer()
        with t:
            do_work()
        print(t.elapsed)

    Re-entering *sequentially* accumulates, so one timer can measure a
    phase that is spread over several code regions (e.g. "preconditioner
    set-up" split between symbolic and numeric factorization).  *Nested*
    entry is an error: a second ``__enter__`` before the matching
    ``__exit__`` would silently overwrite the start stamp and lose the
    outer interval, so it raises instead.  Use one timer per region — or
    the hierarchical spans of :mod:`repro.obs` when nesting is wanted.
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._t0: float | None = None

    def __enter__(self) -> "Timer":
        if self._t0 is not None:
            raise RuntimeError(
                "Timer is already running: nested/re-entrant entry would "
                "overwrite the start stamp and lose the outer interval "
                "(use a separate Timer, or repro.obs spans, for nesting)"
            )
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._t0 is not None, "Timer exited without being entered"
        self.elapsed += time.perf_counter() - self._t0
        self._t0 = None


class Laps:
    """Split one region into consecutive named phases.

    ``lap(name)`` closes the phase running since construction or the
    previous lap; ``phases`` is the ``(name, seconds)`` list and
    ``total`` their sum — the shape :func:`repro.obs.record_span` takes
    for a backdated span with child spans.
    """

    def __init__(self) -> None:
        self.phases: list[tuple[str, float]] = []
        self._last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.phases.append((name, now - self._last))
        self._last = now

    @property
    def total(self) -> float:
        return sum(seconds for _name, seconds in self.phases)
