"""In-process lockstep communicator standing in for MPI (see DESIGN.md).

The communication pattern is GeoFEM's boundary exchange (Fig. 4): each
domain SENDs its boundary-node values to the neighbors that list them,
and RECEIVEs its external-node values from their owners.  Here the
"messages" are numpy buffer copies executed synchronously, which keeps
the algorithm identical to a real MPI run while remaining testable on
one process — the mpi4py buffer-communication idiom without the runtime.

:class:`LockstepComm` speaks the same command contract as the process
transport (:class:`~repro.parallel.transport.ProcessTransport`):
``start(setup, factory)`` runs every rank's set-up and keeps its state,
``run(fn, *args)`` runs a command on every rank — advancing the ranks in
lockstep when it is a rank program — and ``inject_kill`` /
``inject_worker_fault`` arm the same one-shot faults.  Both transports
count exchanges and allreduces; :func:`census` turns those counters into
the message census (:class:`CommCensus`) the Earth Simulator performance
model converts into communication time.  When an observability session
is active (:mod:`repro.obs`), every exchange emits a ``halo_exchange``
span tagged with its messages and bytes on both transports
(:func:`note_exchange`).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.obs import span
from repro.parallel.partition import LocalDomain
from repro.resilience.taxonomy import RankFailure

HALO = "halo"
"""What a rank program (see :func:`repro.parallel.distributed.parallel_cg`)
yields to ask for the boundary exchange of its halo vector; anything else
it yields is its contribution to an allreduce."""

REDUCE_WIDTH = 8
"""Widest allreduce contribution a rank may make (CG needs 3)."""

CORRUPTIONS = ("nan", "bitflip")
"""What :meth:`LockstepComm.inject_worker_fault` can do to a ghost value."""


def check_contribution(contribution) -> np.ndarray:
    """One rank's allreduce contribution as a 1-D float64 vector; raises
    ``ValueError`` unless it is a float or a 1-D vector of at most
    :data:`REDUCE_WIDTH` entries — on either transport."""
    vec = np.atleast_1d(np.asarray(contribution, dtype=np.float64))
    if vec.ndim != 1 or vec.size > REDUCE_WIDTH:
        raise ValueError(
            f"an allreduce contribution is a float or a 1-D vector of at "
            f"most {REDUCE_WIDTH} entries, got shape {vec.shape}"
        )
    return vec


def check_fault(size: int, rank: int, corrupt: str | None = None) -> None:
    """Validate a fault plan's rank and corruption kind."""
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} outside 0..{size - 1}")
    if corrupt not in (None, *CORRUPTIONS):
        raise ValueError(f"unknown corruption {corrupt!r}; use one of {CORRUPTIONS}")


def corrupt_ghost(vec: np.ndarray, slots: np.ndarray, kind: str | None) -> None:
    """Corrupt the first of a received region's *slots* in *vec*, after
    the copy: a NaN, or bit 40 of the value flipped."""
    if kind is None or not slots.size:
        return
    if kind == "nan":
        vec[slots[0]] = np.nan
    else:
        flipped = vec[slots[:1]].view(np.int64) ^ (np.int64(1) << 40)
        vec[slots[0]] = flipped.view(np.float64)[0]


def note_exchange(sp, sizes: list[int]) -> None:
    """Tag one boundary exchange's ``halo_exchange`` span *sp* with its
    messages (*sizes*, bytes each)."""
    sp.set(messages=len(sizes), bytes=int(sum(sizes)))


@dataclass(frozen=True)
class CommCensus:
    """Message census of a communicator's life: what the paper's Fig. 20
    latency model consumes."""

    n_messages: int
    bytes_sent: int
    n_allreduce: int
    max_neighbor_count: int


def census(domains: list[LocalDomain], n_exchanges, n_allreduces) -> CommCensus:
    """The census of *domains* whose ranks completed ``n_exchanges[r]``
    boundary exchanges and ``n_allreduces[r]`` allreduces.  Messages are
    edges, disjoint across ranks (each rank counts what it receives):
    summed.  An allreduce is one collective every rank joins: the most
    any rank completed."""
    n_messages = bytes_sent = 0
    for dom, n in zip(domains, n_exchanges):
        n_messages += int(n) * len(dom.recv_tables)
        bytes_sent += int(n) * sum(ext.size * dom.b * 8 for ext in dom.recv_tables.values())
    return CommCensus(
        n_messages=n_messages,
        bytes_sent=bytes_sent,
        n_allreduce=int(max(n_allreduces, default=0)),
        max_neighbor_count=max((len(d.recv_tables) for d in domains), default=0),
    )


class LockstepComm:
    """Synchronous communicator over a list of local domains: every
    rank's state and programs live in this process."""

    def __init__(self, domains: list[LocalDomain]) -> None:
        self.domains = domains
        # every rank's halo-extended vector: what ``yield HALO`` exchanges
        self.halo = [np.zeros(dom.n_local * dom.b) for dom in domains]
        self.n_exchanges = self.n_allreduces = 0
        self.kills: list[dict] = []
        self.revivals: list[dict] = []
        self._states = [SimpleNamespace() for _ in domains]
        self._setup = None
        self._dead: set[int] = set()
        # global index of the next exchange (a killed one is not counted
        # in the census but has its index) and the one-shot fault plans
        self._exchange_index = 0
        self._kill_plan: dict[int, int] = {}
        self._fault_plan: dict[tuple[int, int], str] = {}

    @property
    def size(self) -> int:
        return len(self.domains)

    @property
    def log(self) -> CommCensus:
        return census(self.domains, [self.n_exchanges] * self.size, [self.n_allreduces])

    # -- the command contract ---------------------------------------------

    def start(self, setup, factory) -> list:
        """Rank *r* runs ``setup(r, state, domains[r], factory)`` and keeps
        *state*; returns what the set-ups returned, by rank."""
        self._setup = setup, factory
        return [self._start_rank(rank) for rank in range(self.size)]

    def _start_rank(self, rank: int):
        setup, factory = self._setup
        self._states[rank] = SimpleNamespace()
        return setup(rank, self._states[rank], self.domains[rank], factory)

    def scratch(self):
        """The allocator of the next command's arrays."""
        return np.zeros

    def run(self, fn, *args) -> list:
        """Every rank runs ``fn(rank, state, *args)``; returns the ranks'
        results.  Generators are rank programs, advanced in lockstep: each
        collective they yield is answered for all of them at once."""
        self._check_alive()
        results = [fn(rank, state, *args) for rank, state in enumerate(self._states)]
        if not results or not inspect.isgenerator(results[0]):
            return results
        replies = [None] * len(results)
        while True:
            requests, outcomes = [], []
            for program, reply in zip(results, replies):
                try:
                    requests.append(program.send(reply))
                except StopIteration as stop:
                    outcomes.append(stop.value)
            if outcomes:  # the ranks stop together
                return outcomes
            if requests[0] is HALO:
                self.exchange_external(self.halo)
                reply = self.halo_mismatch(self.halo)
            else:
                reply = self._allreduce(requests)
            replies = [reply] * len(results)

    def revive(self, rank: int):
        """A replacement for *rank*: it runs its set-up again on the
        (recovered) domain; returns the set-up's reply."""
        self._dead.discard(rank)
        self.revivals.append({"rank": int(rank), "exchange": self._exchange_index})
        return self._start_rank(rank)

    def close(self) -> None:
        """Nothing to release (the context-manager form works regardless
        of transport)."""

    def _check_alive(self) -> None:
        if self._dead:
            raise RankFailure(min(self._dead), 1)

    # -- fault injection ---------------------------------------------------

    def inject_kill(self, rank: int, at_exchange: int) -> None:
        """Kill *rank* on entering halo exchange *at_exchange* (a global
        index that keeps counting across commands, so the plan fires
        once): its halo vector is lost and every collective raises
        :class:`~repro.resilience.taxonomy.RankFailure` until
        :meth:`revive`."""
        check_fault(self.size, rank)
        self._kill_plan[int(rank)] = int(at_exchange)

    def inject_worker_fault(self, rank: int, exchange: int, *, corrupt: str) -> None:
        """Corrupt one ghost value *rank* receives in halo exchange
        *exchange*, after the copy (``"nan"`` / ``"bitflip"``; the first
        slot from its lowest-numbered owner).  One-shot: exchange indices
        are global, the rolled-back re-execution runs clean."""
        check_fault(self.size, rank, corrupt)
        self._fault_plan[(int(rank), int(exchange))] = corrupt

    # -- collectives -------------------------------------------------------

    def _edges(self):
        """``(receiver, owner, receiver's ghost slots, owner's boundary
        slots)`` of every message of one exchange."""
        for d, dom in enumerate(self.domains):
            for owner, ext_local in sorted(dom.recv_tables.items()):
                peer = self.domains[owner]
                yield d, owner, dom.local_dofs(ext_local), peer.local_dofs(peer.send_tables[d])

    def exchange_external(self, vectors: list[np.ndarray]) -> None:
        """Fill every domain's external DOF slots from the owners.

        ``vectors[d]`` is domain d's full local DOF vector (internal then
        external); internal parts are read, external parts overwritten.
        """
        if len(vectors) != self.size:
            raise ValueError(f"expected {self.size} vectors, got {len(vectors)}")
        self._check_alive()
        index, self._exchange_index = self._exchange_index, self._exchange_index + 1
        for rank, at in sorted(self._kill_plan.items()):
            if at <= index:  # the rank dies *now*: its memory is gone with it
                del self._kill_plan[rank]
                vectors[rank][:] = np.nan
                self._dead.add(rank)
                self.kills.append({"rank": rank, "exchange": index})
        self._check_alive()
        # rank=-1: every rank's exchange in one place; the process
        # transport emits one rank-tagged span per worker instead
        with span("halo_exchange", rank=-1) as sp:
            sizes, first = [], {}
            for d, owner, dst, src in self._edges():
                vectors[d][dst] = vectors[owner][src]
                sizes.append(src.size * 8)
                first.setdefault(d, dst)
            for d, dst in first.items():
                corrupt_ghost(vectors[d], dst, self._fault_plan.get((d, index)))
            self.n_exchanges += 1
            note_exchange(sp, sizes)

    def halo_mismatch(self, vectors: list[np.ndarray]) -> float:
        """Owner/ghost agreement probe: worst |ghost - owner| over all halos.

        After a correct exchange every external slot equals the owning
        domain's boundary value, so this returns 0.0; a stale ghost, NaN
        payload or bit-flip shows up as a positive (or ``inf``) mismatch.
        The process transport answers the same question from checksums
        the senders stored; neither is a message of the census.
        """
        worst = 0.0
        for d, owner, dst, src in self._edges():
            diff = vectors[d][dst] - vectors[owner][src]
            if not np.isfinite(diff).all():
                return float("inf")
            if diff.size:
                worst = max(worst, float(np.abs(diff).max()))
        return worst

    def _allreduce(self, contributions: list) -> float | np.ndarray:
        """Global sum of one float, or one short vector, per rank."""
        vecs = [check_contribution(c) for c in contributions]
        if any(v.shape != vecs[0].shape for v in vecs):
            raise ValueError("each rank must contribute a vector of equal length")
        self._check_alive()
        self.n_allreduces += 1
        if np.ndim(contributions[0]) == 0:
            return float(np.sum(contributions))
        return np.asarray(contributions, dtype=np.float64).sum(axis=0)

    def allreduce_sum_vec(self, contributions: list[np.ndarray]) -> np.ndarray:
        """Element-wise global sum of one small vector per rank.

        One MPI_Allreduce on a k-element buffer costs a single latency,
        while k scalar allreduces cost k of them — fusing the CG dot
        products this way is the latency optimization the paper's Fig. 20
        model quantifies.  Counted as ONE allreduce in the census.
        """
        if len(contributions) != self.size:
            raise ValueError(f"expected {self.size} contributions, got {len(contributions)}")
        return self._allreduce([np.atleast_1d(c) for c in contributions])
