"""The harness's own span recorder.

Spans are recorded from the benchmark's files, around calls into the
program's public functions: :meth:`Tracer.instrument` swaps a module or
class attribute for a wrapper that records ``(name, start, end, parent,
repetition)`` and restores it afterwards.  Spans stay in memory and are
written out once, when the run ends.  A layer's *self time* is its
span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

NAME, START, END, PARENT, REP = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self.rep = -1
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.rep]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` under a span (for harness-level
        phases that are not a single attribute to patch)."""
        return self.wrap(fn, name)(*args, **kwargs)

    def instrument(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new: Any = classmethod(self.wrap(raw.__func__, name))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name))
        else:
            new = self.wrap(raw, name)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, dict[str, dict[str, float]]]:
        """``{rep: {name: {"self": s, "total": s, "count": n}}}``."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out: dict[int, dict[str, dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"self": 0.0, "total": 0.0, "count": 0})
        )
        for span, covered in zip(self.spans, child_time):
            duration = span[END] - span[START]
            cell = out[span[REP]][span[NAME]]
            cell["self"] += duration - covered
            cell["total"] += duration
            cell["count"] += 1
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, rep) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "rep": rep}
                ) + "\n")
