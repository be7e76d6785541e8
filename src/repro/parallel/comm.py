"""In-process lockstep communicator standing in for MPI (see DESIGN.md).

The communication pattern is GeoFEM's boundary exchange (Fig. 4): each
domain SENDs its boundary-node values to the neighbors that list them,
and RECEIVEs its external-node values from their owners.  Here the
"messages" are numpy buffer copies executed synchronously, which keeps
the algorithm identical to a real MPI run while remaining testable on
one process — the mpi4py buffer-communication idiom without the runtime.

Every exchange and reduction is tallied in :class:`CommLog`; the Earth
Simulator performance model converts those counts into communication
time (latency + volume / bandwidth).  When an observability session is
active (:mod:`repro.obs`), every tally is forwarded into the metrics
registry (``comm.exchanges`` / ``comm.messages`` / ``comm.bytes`` /
``comm.allreduces``) and each boundary exchange emits a ``halo_exchange``
span, so the unified trace carries the same census the paper's Fig. 20
latency model consumes — :class:`CommLog` stays the cheap, always-on
aggregate view.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.obs import metric_inc, metric_observe, session as obs_session, span
from repro.parallel.partition import LocalDomain

HALO = "halo"
"""What a rank program (see :func:`repro.parallel.distributed.parallel_cg`)
yields to ask for the boundary exchange of its halo vector; anything else
it yields is its contribution to an allreduce."""

PER_EXCHANGE_RETENTION = 4096
"""Default bound on :attr:`CommLog.per_exchange_bytes`.

One entry per exchange grows without bound on long solves (the original
unbounded list was a slow leak: a million-iteration solve kept a
million ints alive for a per-exchange series nothing was reading).  The
aggregates (``n_messages``/``bytes_sent``) and, when observability is
on, the ``comm.exchange_bytes`` histogram carry the full-census totals;
the retained tail exists only for tests and ad-hoc inspection."""


@dataclass
class CommLog:
    """Message census of a distributed solve.

    Aggregates (message/byte/allreduce counts) are exact over the whole
    solve; ``per_exchange_bytes`` retains only the most recent
    ``PER_EXCHANGE_RETENTION`` exchange totals (pass a different
    ``deque`` — e.g. ``deque(maxlen=None)`` — to change the retention).

    ``rank`` identifies the emitting rank for per-worker logs kept by the
    real-process transport (:mod:`repro.parallel.transport`): when set,
    every forwarded ``comm.*`` metric carries a ``rank`` label, and
    :meth:`merge` folds the per-rank censuses back into the aggregate
    view ``LockstepComm`` reports.  ``None`` means "aggregate over all
    ranks" (the lockstep emulation, or a merged census).  The log is
    picklable — worker processes ship theirs back over a pipe.
    """

    n_messages: int = 0
    bytes_sent: int = 0
    n_allreduce: int = 0
    max_neighbor_count: int = 0
    per_exchange_bytes: deque[int] = field(
        default_factory=lambda: deque(maxlen=PER_EXCHANGE_RETENTION)
    )
    rank: int | None = None

    def record_exchange(self, messages: list[int]) -> int:
        """Tally one boundary exchange; returns its total byte count."""
        self.n_messages += len(messages)
        total = int(sum(messages))
        self.bytes_sent += total
        self.per_exchange_bytes.append(total)
        if obs_session() is not None:
            labels = {} if self.rank is None else {"rank": self.rank}
            metric_inc("comm.exchanges", **labels)
            metric_inc("comm.messages", len(messages), **labels)
            metric_inc("comm.bytes", total, **labels)
            metric_observe("comm.exchange_bytes", total, **labels)
        return total

    def record_allreduce(self) -> None:
        self.n_allreduce += 1
        if self.rank is None:
            metric_inc("comm.allreduces")
        else:
            metric_inc("comm.allreduces", rank=self.rank)

    def merge(self, other: "CommLog") -> "CommLog":
        """Fold another census into this one; returns ``self``.

        Designed so per-rank worker logs reduce to the aggregate census
        the lockstep emulation reports, which requires two different
        merge rules:

        - ``n_messages`` / ``bytes_sent`` count *edges*, which are
          disjoint across ranks (each rank logs only what it received)
          → **summed**;
        - ``n_allreduce`` counts *collectives*, which every rank logs
          once → **max** (all equal in a healthy run), so merging four
          workers' logs does not quadruple the allreduce census;
        - ``max_neighbor_count`` is already a maximum → **max** (a plain
          counter sum would not survive the merge);
        - ``per_exchange_bytes`` entries describe the same exchange
          sequence on every rank → element-wise sum, aligned at the most
          recent entry (shorter series zero-pad at the old end, matching
          the deque's drop-oldest retention).

        The merged log is an aggregate, so ``rank`` is cleared unless
        both sides tagged the same rank.
        """
        self.n_messages += other.n_messages
        self.bytes_sent += other.bytes_sent
        self.n_allreduce = max(self.n_allreduce, other.n_allreduce)
        self.max_neighbor_count = max(
            self.max_neighbor_count, other.max_neighbor_count
        )
        mine, theirs = list(self.per_exchange_bytes), list(other.per_exchange_bytes)
        n = max(len(mine), len(theirs))
        mine = [0] * (n - len(mine)) + mine
        theirs = [0] * (n - len(theirs)) + theirs
        maxlen = self.per_exchange_bytes.maxlen
        self.per_exchange_bytes = deque(
            (a + b for a, b in zip(mine, theirs)), maxlen=maxlen
        )
        if self.rank != other.rank:
            self.rank = None
        return self


class LockstepComm:
    """Synchronous communicator over a list of local domains."""

    def __init__(self, domains: list[LocalDomain]) -> None:
        self.domains = domains
        self.log = CommLog()
        self.log.max_neighbor_count = max(
            (len(d.recv_tables) for d in domains), default=0
        )

    @property
    def size(self) -> int:
        return len(self.domains)

    def exchange_external(self, vectors: list[np.ndarray]) -> None:
        """Fill every domain's external DOF slots from the owners.

        ``vectors[d]`` is domain d's full local DOF vector (internal then
        external); internal parts are read, external parts overwritten.
        """
        if len(vectors) != self.size:
            raise ValueError(f"expected {self.size} vectors, got {len(vectors)}")
        # rank=-1: the lockstep emulation performs every rank's exchange
        # in one place; real transports emit one rank-tagged span per
        # worker instead (see repro.parallel.transport).
        with span("halo_exchange", rank=-1) as sp:
            messages = []
            for d, dom in enumerate(self.domains):
                for owner, ext_local in dom.recv_tables.items():
                    peer = self.domains[owner]
                    src = peer.send_tables[d]
                    src_dofs = peer.local_dofs(src)
                    dst_dofs = dom.local_dofs(ext_local)
                    vectors[d][dst_dofs] = vectors[owner][src_dofs]
                    messages.append(src_dofs.size * 8)
            total = self.log.record_exchange(messages)
            sp.set(messages=len(messages), bytes=total)

    def halo_mismatch(self, vectors: list[np.ndarray]) -> float:
        """Owner/ghost agreement probe: worst |ghost - owner| over all halos.

        After a correct exchange every external slot equals the owning
        domain's boundary value, so this returns 0.0; a dropped/stale
        message, NaN payload or bit-flip shows up as a positive (or
        ``inf``) mismatch.  In a real MPI run this is a checksum
        piggybacked on an existing allreduce; the emulation inspects the
        owner buffers directly, so it is not tallied in :class:`CommLog`
        (the solver's message census stays comparable to the paper's).
        """
        worst = 0.0
        for d, dom in enumerate(self.domains):
            for owner, ext_local in dom.recv_tables.items():
                peer = self.domains[owner]
                src_dofs = peer.local_dofs(peer.send_tables[d])
                dst_dofs = dom.local_dofs(ext_local)
                diff = vectors[d][dst_dofs] - vectors[owner][src_dofs]
                if not np.isfinite(diff).all():
                    return float("inf")
                if diff.size:
                    worst = max(worst, float(np.abs(diff).max()))
        return worst

    def allreduce_sum(self, contributions: list[float]) -> float:
        """Global sum (MPI_Allreduce) of one scalar per rank."""
        if len(contributions) != self.size:
            raise ValueError(f"expected {self.size} contributions, got {len(contributions)}")
        self.log.record_allreduce()
        return float(np.sum(contributions))

    def allreduce_sum_vec(self, contributions: list[np.ndarray]) -> np.ndarray:
        """Element-wise global sum of one small vector per rank.

        One MPI_Allreduce on a k-element buffer costs a single latency,
        while k scalar allreduces cost k of them — fusing the CG dot
        products this way is the latency optimization the paper's Fig. 20
        model quantifies.  Counted as ONE allreduce in the log.
        """
        if len(contributions) != self.size:
            raise ValueError(f"expected {self.size} contributions, got {len(contributions)}")
        stacked = np.asarray(contributions, dtype=np.float64)
        if stacked.ndim != 2:
            raise ValueError("each rank must contribute a 1-D vector of equal length")
        self.log.record_allreduce()
        return stacked.sum(axis=0)
