"""Hierarchical span tracer: the timing substrate of the observability layer.

A :class:`Span` is one timed region of a solve — an ALM cycle, a symbolic
setup, a CG iteration sweep, a halo exchange — with a name, free-form
attributes, and children.  A :class:`Tracer` maintains a per-thread stack
of open spans, so ``with tracer.span("cg_solve"):`` nested inside
``with tracer.span("alm_cycle"):`` yields the hierarchy the paper's
per-phase cost breakdown (Tables 1-4, Figs. 16-32) needs, without any
manual parent bookkeeping.

Design constraints (see DESIGN.md section 11):

- stdlib only (``time``/``threading``/``itertools``), so every layer of
  the stack — including :mod:`repro.resilience.taxonomy`, which must stay
  dependency-light — can import it without cycles;
- thread-safe: each thread owns its span stack (``threading.local``);
  completed root spans are appended to a shared, lock-protected list;
- cheap when idle: creating a tracer costs two small objects; the
  process-wide *disabled* path never reaches this module at all (see
  :mod:`repro.obs`'s null span).
"""

from __future__ import annotations

import itertools
import threading
import time

__all__ = ["Span", "Tracer"]


class Span:
    """One timed, named, attributed region; a node in the trace tree.

    ``kind`` is ``"span"`` for regions with duration and ``"event"`` for
    zero-duration point annotations (a detection, a penalty back-off, a
    per-iteration residual sample).
    """

    __slots__ = (
        "name",
        "attrs",
        "t_start",
        "t_end",
        "children",
        "span_id",
        "parent_id",
        "tid",
        "kind",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        attrs: dict,
        span_id: int,
        parent_id: int | None,
        tid: int,
        tracer: "Tracer | None" = None,
        kind: str = "span",
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.tid = tid
        self.kind = kind
        self.children: list[Span] = []
        self.t_start = time.perf_counter()
        self.t_end: float | None = None
        self._tracer = tracer

    # -- context manager -----------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        if self._tracer is not None:
            self._tracer._finish(self)

    def set(self, **attrs) -> "Span":
        """Attach/overwrite attributes; chainable, no-op-compatible with
        the disabled-path null span."""
        self.attrs.update(attrs)
        return self

    # -- introspection ---------------------------------------------------

    @property
    def duration(self) -> float:
        """Seconds from start to end (to *now* while still open)."""
        end = self.t_end if self.t_end is not None else time.perf_counter()
        return end - self.t_start

    def iter(self):
        """Pre-order traversal of this span and all descendants."""
        yield self
        for c in self.children:
            yield from c.iter()

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (self included) with the given name."""
        return [s for s in self.iter() if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of all descendant spans with the given name."""
        return sum(s.duration for s in self.find(name))

    def to_dict(self) -> dict:
        """JSON-safe nested representation (children inlined)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "tid": self.tid,
            "t_start": self.t_start,
            "duration": None if self.t_end is None else self.t_end - self.t_start,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:
        dur = f"{self.duration * 1e3:.3f}ms" if self.t_end is not None else "open"
        return f"Span({self.name!r}, {dur}, {len(self.children)} children)"


class Tracer:
    """Collects a tree of :class:`Span` per thread; thread-safe.

    The per-thread stack lives in ``threading.local``; finished *root*
    spans (and events recorded with no span open) are appended to
    :attr:`roots` under a lock, so worker threads can trace concurrently
    and the export sees one consistent forest.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self.roots: list[Span] = []
        self.t0 = time.perf_counter()

    # -- span stack ------------------------------------------------------

    def _stack(self) -> list[Span]:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    @property
    def current(self) -> Span | None:
        """The innermost open span of the calling thread, if any."""
        st = self._stack()
        return st[-1] if st else None

    def span(self, name: str, **attrs) -> Span:
        """Open a new span as a child of the calling thread's current one.

        Use as a context manager; exiting closes the span and, for roots,
        publishes it to :attr:`roots`.
        """
        st = self._stack()
        parent = st[-1] if st else None
        sp = Span(
            name,
            attrs,
            span_id=next(self._ids),
            parent_id=None if parent is None else parent.span_id,
            tid=threading.get_ident(),
            tracer=self,
        )
        if parent is not None:
            parent.children.append(sp)
        st.append(sp)
        return sp

    def _finish(self, sp: Span) -> None:
        sp.t_end = time.perf_counter()
        st = self._stack()
        # tolerate out-of-order exits (an exception unwinding through
        # several spans): pop everything above sp, closing it too
        while st:
            top = st.pop()
            if top.t_end is None:
                top.t_end = sp.t_end
            if top is sp:
                break
        if sp.parent_id is None:
            with self._lock:
                self.roots.append(sp)

    def event(self, name: str, **attrs) -> Span:
        """Record a zero-duration point annotation at the current position."""
        st = self._stack()
        parent = st[-1] if st else None
        ev = Span(
            name,
            attrs,
            span_id=next(self._ids),
            parent_id=None if parent is None else parent.span_id,
            tid=threading.get_ident(),
            kind="event",
        )
        ev.t_end = ev.t_start
        if parent is not None:
            parent.children.append(ev)
        else:
            with self._lock:
                self.roots.append(ev)
        return ev

    def record_span(
        self, name: str, seconds: float, phases=(), **attrs
    ) -> Span:
        """Attach an already-measured region as a completed span.

        For phases that keep their own wall-clock bookkeeping (e.g.
        ``ICSymbolic.build_seconds``): the span is backdated so its
        duration equals *seconds*, and parented at the current position.
        The region must not itself have opened child spans; what it
        timed inside itself goes in *phases*, ``(name, seconds)`` pairs
        of consecutive sub-regions, which become its child spans laid
        end to end from its start.
        """
        st = self._stack()
        parent = st[-1] if st else None
        sp = Span(
            name,
            attrs,
            span_id=next(self._ids),
            parent_id=None if parent is None else parent.span_id,
            tid=threading.get_ident(),
        )
        sp.t_end = sp.t_start
        sp.t_start -= float(seconds)
        t = sp.t_start
        for child_name, child_seconds in phases:
            child = Span(
                child_name,
                {},
                span_id=next(self._ids),
                parent_id=sp.span_id,
                tid=sp.tid,
            )
            child.t_start = t
            t += float(child_seconds)
            child.t_end = t
            sp.children.append(child)
        if parent is not None:
            parent.children.append(sp)
        else:
            with self._lock:
                self.roots.append(sp)
        return sp

    # -- aggregation -----------------------------------------------------

    def iter_spans(self):
        """Pre-order traversal over every recorded root and descendant."""
        with self._lock:
            roots = list(self.roots)
        for r in roots:
            yield from r.iter()

    def find(self, name: str) -> list[Span]:
        return [s for s in self.iter_spans() if s.name == name]

    def count(self, name: str) -> int:
        return len(self.find(name))

    def total_seconds(self, name: str) -> float:
        return sum(s.duration for s in self.find(name))

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_spans())
