"""Real-process transport: resident SPMD rank workers over shared memory.

One worker per rank for the system's whole life (DESIGN.md section 13),
on the forked command workers of :mod:`repro.utils.workers`:
:meth:`ProcessTransport.start` forks them — or takes the set the last
closed system with as many ranks and the same factory parked — and each
runs its own rank's set-up, side by side with its peers, keeping the
factor; every later
:meth:`ProcessTransport.run` is a command — a module-level function sent
by reference — that the worker runs on what it kept, advancing it by
itself when it is a rank program (see
:func:`~repro.parallel.distributed.parallel_cg`).  The ranks meet only at
the program's collectives, through shared memory and one sequence
counter per rank: a **halo exchange** gathers the external DOFs from
their owners' vectors and checks them against checksums the senders
stored (the owner/ghost probe, with zero additional messages); an
**allreduce** sums a double-buffered table with the same rank-ordered
``np.sum`` as :class:`~repro.parallel.comm.LockstepComm`, which is what
makes the two transports bit-identical.  The command contract, the fault
plans and the census are :class:`~repro.parallel.comm.LockstepComm`'s.

A wait is ``check → sched_yield → abort flag → deadline``.  The driver
sleeps on the workers' pipes and classifies how a command ended: EOF —
a worker died, mid-command or idle — is
:class:`~repro.resilience.taxonomy.RankFailure` (the rank stays dead
until :meth:`ProcessTransport.revive`); a wait past the transport's
``budget`` with everybody alive is
:class:`~repro.resilience.taxonomy.CommTimeout`; a command that raised is
re-raised.  A failed command is called off for every rank, and a worker
not back in its loop ``REAP_GRACE_S`` later is replaced.  The
publish/consume order relies on x86-TSO store order; a torn halo on a
weaker machine would trip the checksum.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import inspect
import io
import math
import mmap
import os
import pickle
import signal
import tempfile
import threading
import time
import warnings
import weakref
from multiprocessing.connection import wait as mp_wait
from pathlib import Path

import numpy as np

from repro import obs
from repro.obs import span
from repro.parallel.comm import (
    HALO,
    REDUCE_WIDTH,
    CommCensus,
    census,
    check_contribution,
    check_fault,
    corrupt_ghost,
    note_exchange,
)
from repro.parallel.partition import LocalDomain, build_domains
from repro.resilience.taxonomy import CommTimeout, RankFailure
from repro.utils.workers import REAP_GRACE_S, Workers

__all__ = ["ProcessTransport", "shutdown"]


def _checksum(data: np.ndarray) -> tuple[float, int]:
    """Payload checksum: (float64 sum, XOR of the values' bit patterns).

    The XOR catches any corrupted value — one flipped bit, however small
    the value it lands on, or a NaN — and the sum says how far apart the
    two payloads are (NaN/Inf when either carries poison)."""
    return float(np.sum(data)), int(np.bitwise_xor.reduce(data.view(np.int64)))


# ----------------------------------------------------------------------
# shared memory
# ----------------------------------------------------------------------


class _Arena:
    """The memory the driver and a set of rank workers share: one file (a
    memfd) that the driver grows and every process maps — the workers
    inherit its descriptor — so an array in it, named by ``(offset,
    shape, dtype)``, reaches a worker forked before the array existed.

    A bump allocator: a system lays out its domains and its fabric from
    the bottom, and above them :meth:`ProcessTransport.scratch` rewinds
    to its floor; the next system on the same workers rewinds to 0.
    Arrays come two ways: :meth:`alloc` maps them here, and
    :meth:`stage` keeps them in this process's own memory under an
    arena name until :meth:`place` writes them into the file — what the
    workers only read, which this process then never maps: pages it
    wrote through a mapping would sit in its resident set beside a heap
    that had room for them.  Workers forked after the staging need no
    file: :meth:`unstage`."""

    ALIGN = 64  # one cache line: two ranks' arrays never share one

    def __init__(self) -> None:
        if hasattr(os, "memfd_create"):
            self.fd = os.memfd_create("repro-transport")
        else:  # an unlinked temporary file serves the same purpose
            self.fd, path = tempfile.mkstemp(prefix="repro-transport-")
            os.unlink(path)
        self.top, self._maps = 0, []  # (address, mmap) pairs, newest last
        self._staged: list[tuple[np.ndarray, int]] = []  # (array, offset)

    def _reserve(self, nbytes: int) -> int:
        """The offset of *nbytes* new bytes at the top."""
        offset = -(-self.top // self.ALIGN) * self.ALIGN
        self.top = offset + nbytes
        size = os.fstat(self.fd).st_size
        if self.top > size:  # grow geometrically: few mappings, sparse file
            os.ftruncate(self.fd, max(self.top, 2 * size, 1 << 20))
        return offset

    def rewind(self) -> None:
        """Start the layout over from the bottom.  This process's pages
        in the mappings older than the newest are dropped from them
        (their contents stay in the file): the next layout touches them
        through the newest one, and a page mapped twice counts twice in
        the resident set."""
        self.top = 0
        self._staged.clear()
        if hasattr(mmap, "MADV_DONTNEED"):
            for _, mm in self._maps[:-1]:
                mm.madvise(mmap.MADV_DONTNEED)

    def alloc(self, n: int, dtype=np.float64) -> np.ndarray:
        """A zeroed array of *n* items, mapped."""
        dtype = np.dtype(dtype)
        offset = self._reserve(int(n) * dtype.itemsize)
        arr = self.view(offset, (int(n),), dtype.str)
        arr[:] = 0
        return arr

    def stage(self, n: int, dtype=np.float64) -> np.ndarray:
        """An array of *n* items (``np.empty``'s contract) in this
        process's memory that pickles under its arena name; its values
        reach the arena at :meth:`place`."""
        arr = np.empty(int(n), dtype)
        self._staged.append((arr, self._reserve(arr.nbytes)))
        return arr

    def place(self) -> None:
        """Write every staged array into the file, where the workers map it."""
        for arr, offset in self._staged:
            data = memoryview(arr).cast("B")
            while data:
                written = os.pwrite(self.fd, data, offset)
                data, offset = data[written:], offset + written

    def unstage(self) -> None:
        """Let the staged arrays go unwritten — workers forked after them
        inherit them with this process's memory — and pickle by value."""
        self._staged.clear()

    def view(self, offset: int, shape: tuple, dtype: str) -> np.ndarray:
        """The array named ``(offset, shape, dtype)``."""
        count = int(np.prod(shape))
        end = offset + count * np.dtype(dtype).itemsize
        if not self._maps or end > len(self._maps[-1][1]):
            # the file grew since this process last mapped it
            mm = mmap.mmap(self.fd, os.fstat(self.fd).st_size)
            self._maps.append((np.frombuffer(mm, np.uint8).ctypes.data, mm))
        return np.frombuffer(self._maps[-1][1], dtype, count, offset).reshape(shape)

    def name_of(self, obj) -> tuple | None:
        """The name of an array in the arena, mapped or staged (a pickle
        persistent id); None for anything else, which pickles by value."""
        if type(obj) is not np.ndarray or not obj.flags.c_contiguous:
            return None
        address = obj.ctypes.data
        for base, mm in self._maps:
            if base <= address and address + obj.nbytes <= base + len(mm):
                return address - base, obj.shape, obj.dtype.str
        for arr, offset in self._staged:
            base = arr.ctypes.data
            if base <= address and address + obj.nbytes <= base + arr.nbytes:
                return offset + address - base, obj.shape, obj.dtype.str
        return None

    def dumps(self, obj) -> bytes:
        buf = io.BytesIO()
        pickler = pickle.Pickler(buf, pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = self.name_of
        pickler.dump(obj)
        return buf.getvalue()

    def loads(self, data: bytes):
        unpickler = pickle.Unpickler(io.BytesIO(data))
        unpickler.persistent_load = lambda name: self.view(*name)
        return unpickler.load()

    def close(self) -> None:
        """Release the descriptor; the mappings stay valid."""
        os.close(self.fd)
        self.fd = -1  # never a recycled descriptor


class _Fabric:
    """One system's shared state in its arena: the arrays every
    collective uses, the domains, the wait budget and the fault plans.
    It reaches each worker with the set-up command, pickled by
    :meth:`_Arena.dumps`, so its arrays arrive as the same memory."""

    def __init__(self, arena: _Arena, domains: list[LocalDomain], budget: float) -> None:
        nd, alloc = len(domains), arena.alloc
        self.domains, self.budget = domains, budget
        # one halo-extended vector per rank: what every exchange moves
        self.halo = [alloc(dom.n_local * dom.b) for dom in domains]
        # per rank: last published sync (reset every command); global index
        # of its next exchange and its census (both count across commands)
        self.seq, self.exchange_index, self.n_exchanges, self.n_allreduces = (
            alloc(nd, np.int64) for _ in range(4)
        )
        self.abort = alloc(1, np.int64)
        self.reduce = alloc(2 * nd * REDUCE_WIDTH).reshape(2, nd, REDUCE_WIDTH)
        # [sender, receiver] -> checksum of the region receiver reads
        self.sums = alloc(nd * nd).reshape(nd, nd)
        self.hashes = alloc(nd * nd, np.int64).reshape(nd, nd)
        # fault plans: the driver's ride every command to its workers
        self.kill_plan: dict[int, int] = {}
        self.fault_plan: dict[tuple[int, int], dict] = {}


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


class _Aborted(Exception):
    """The command was called off (abort flag) while this rank waited."""


class _RankLink:
    """One rank's end of the shared-memory fabric (lives in its worker)."""

    def __init__(self, rank: int, fab: _Fabric) -> None:
        self.rank, self.fab = rank, fab
        doms, dom = fab.domains, fab.domains[rank]
        # owner -> (external DOF slots of this rank's vector to fill,
        #           boundary DOF slots of the owner's vector to read)
        self.recv = {
            owner: (
                dom.local_dofs(ext),
                doms[owner].local_dofs(doms[owner].send_tables[rank]),
            )
            for owner, ext in sorted(dom.recv_tables.items())
        }
        # neighbor -> internal DOF slots of this rank's vector it reads
        self.send = {n: dom.local_dofs(bnd) for n, bnd in dom.send_tables.items()}
        self.owners = np.array(list(self.recv), dtype=np.int64)
        self.everyone = np.arange(len(doms))
        self.sizes = [dst.size * 8 for dst, _ in self.recv.values()]
        self.seq = 0
        self.reductions = 0

    def _publish_and_wait(self, kind: str, ranks: np.ndarray) -> None:
        """Announce this rank's next sync, then wait for *ranks* to reach it."""
        fab = self.fab
        self.seq += 1
        fab.seq[self.rank] = self.seq
        with span("rank.wait", rank=self.rank, kind=kind):
            end = time.monotonic() + fab.budget
            while True:
                behind = fab.seq[ranks] < self.seq
                if not behind.any():
                    return
                os.sched_yield()
                if fab.abort[0]:
                    raise _Aborted
                if time.monotonic() > end:
                    raise CommTimeout(kind, ranks[behind], fab.budget)

    def exchange(self) -> float:
        """Boundary exchange of this rank's halo vector; returns the worst
        receiver-vs-sender checksum disagreement (``inf`` on NaN/Inf)."""
        fab, rank = self.fab, self.rank
        index = int(fab.exchange_index[rank])
        if fab.kill_plan.get(rank, index + 1) <= index:
            os.kill(os.getpid(), signal.SIGKILL)
        fab.exchange_index[rank] = index + 1
        plan = fab.fault_plan.get((rank, index), {})
        if plan.get("delay"):
            time.sleep(plan["delay"])
        mine = fab.halo[rank]
        for nbr, src in self.send.items():
            fab.sums[rank, nbr], fab.hashes[rank, nbr] = _checksum(mine[src])
        self._publish_and_wait("halo", self.owners)
        worst = 0.0
        with span("halo_exchange", rank=rank) as sp:
            for i, (owner, (dst, src)) in enumerate(self.recv.items()):
                mine[dst] = fab.halo[owner][src]
                if i == 0:
                    corrupt_ghost(mine, dst, plan.get("corrupt"))
                rsum, rhash = _checksum(mine[dst])
                gap = abs(rsum - fab.sums[owner, rank])
                if not math.isfinite(gap):  # NaN/Inf poison on either side
                    worst = float("inf")
                elif rhash != fab.hashes[owner, rank]:  # at least one ulp apart
                    worst = max(worst, gap, math.ulp(rsum))
            fab.n_exchanges[rank] += 1
            note_exchange(sp, self.sizes)
        return worst

    def allreduce(self, contribution) -> float | np.ndarray:
        """Global sum of one float, or one short vector, per rank."""
        vec = check_contribution(contribution)
        # two tables, alternating: a rank may write its row for reduction
        # n+2 only after passing n+1, which everybody reached after
        # reading n — so nobody's row is overwritten while being summed
        self.reductions += 1
        table = self.fab.reduce[self.reductions % 2]
        table[self.rank, : vec.size] = vec
        self._publish_and_wait("allreduce", self.everyone)
        # a contiguous (ranks, k) stack summed over axis 0: the identical
        # np.sum as LockstepComm — the bit-identity of the two transports
        total = np.array(table[:, : vec.size]).sum(axis=0)
        self.fab.n_allreduces[self.rank] += 1
        return total if np.ndim(contribution) else float(total[0])

    def run(self, fn, state, args):
        """Run one command on this rank, advancing it when it is a rank
        program; whatever it raises goes to the driver."""
        self.seq = self.reductions = 0
        try:
            result = fn(self.rank, state, *args)
            return self._advance(result) if inspect.isgenerator(result) else result
        except Exception as exc:
            if not isinstance(exc, _Aborted):
                self.fab.abort[0] = 1  # nobody will meet the waiting peers
            raise

    def _advance(self, program):
        """Advance a rank program, serving each collective it yields."""
        reply = None
        try:
            while True:
                with span("rank.compute", rank=self.rank):
                    request = program.send(reply)
                reply = self.exchange() if request is HALO else self.allreduce(request)
        except StopIteration as stop:
            return stop.value


def _export_trace(rank: int, state) -> None:
    """Rewrite this rank's trace file (when it keeps one): after every
    command, so a later kill loses nothing already recorded."""
    if state.trace is not None:
        tracer, path = state.trace
        obs.export_jsonl(tracer, path, rank=rank)


def _cpu_s() -> float:
    """CPU seconds this process has used (user + system)."""
    t = os.times()
    return t.user + t.system


def _set_up_rank(rank, state, fab: _Fabric, setup, cpus, trace):
    """This rank's part of a new system, on a worker that kept of the
    previous one at most what :func:`_forget` keeps: pin to its CPU of
    the driver's mask, start the rank's own trace session when there is
    one and run ``setup(rank, state, domain, factory)`` with the factory
    the worker was forked with.  Replies ``(value, CPU s)``."""
    cpu0 = _cpu_s()
    obs.disable()
    state.trace = None
    if trace is not None:  # this rank's own observability session
        trace_dir, tags = trace
        tag = f".{tags[rank]}" if tags[rank] else ""
        state.trace = obs.enable(), trace_dir / f"trace.rank{rank}{tag}.jsonl"
    if cpus and hasattr(os, "sched_setaffinity"):
        # unpinned, the kernel co-locates two ranks that keep waking each other
        os.sched_setaffinity(0, {cpus[rank % len(cpus)]})
    state.link = _RankLink(rank, fab)
    try:
        value = state.link.run(setup, state, (fab.domains[rank], state.factory))
        return value, _cpu_s() - cpu0
    finally:
        _export_trace(rank, state)


def _boot(arena: _Arena, factory, spec: tuple, rank, state):
    """A rank worker's fork-time set-up: it keeps the arena it shares
    with the driver and the factory it inherited, for every system it
    will serve, and sets up its rank of the system that forked it —
    *spec* is :func:`_set_up_rank`'s arguments, inherited as they are."""
    state.arena, state.factory = arena, factory
    return _set_up_rank(rank, state, *spec)


def _rank_setup(rank, state, message: bytes):
    """The set-up command of a parked worker taken by a new system:
    *message* is :func:`_set_up_rank`'s arguments, arena-pickled, so the
    domains arrive as the pages the driver cut them into."""
    return _set_up_rank(rank, state, *state.arena.loads(message))


_KEPT = ("arena", "factory", "kept")
"""What a parked worker keeps: the arena and the factory that every
system it serves shares, and its rank's last preconditioner with the
internal node ids it was built for, which the next system's set-up
refactors when its rank has the same nodes and block pattern
(:func:`~repro.parallel.distributed._rank_setup`)."""


def _forget(rank, state) -> None:
    """The parking command: the worker drops its system — domain views,
    link, trace session — and keeps only :data:`_KEPT`."""
    kept = {name: value for name, value in vars(state).items() if name in _KEPT}
    vars(state).clear()
    vars(state).update(kept)
    obs.disable()


def _command(rank, state, message: bytes):
    """A transport command as its worker runs it: the arena-pickled
    ``(fn, args, kill plan, fault plan)`` of :meth:`ProcessTransport.run`.
    Replies ``(value, CPU s)``."""
    cpu0, link = _cpu_s(), state.link
    fn, args, link.fab.kill_plan, link.fab.fault_plan = state.arena.loads(message)
    try:
        return link.run(fn, state, args), _cpu_s() - cpu0
    finally:
        _export_trace(rank, state)


def _halo_exchange(rank, state):
    return (yield HALO)


def _allreduce(rank, state, contributions):
    return (yield contributions[rank])


# ----------------------------------------------------------------------
# driver side: rank sets and their pool
# ----------------------------------------------------------------------


def _captured(factory) -> bytes | None:
    """A digest of what a function closes over — its cells' values and
    its defaults — to tell whether it still computes what a worker forked
    with it inherited; None when that cannot be told (not a function, or
    a captured value that does not pickle)."""
    try:
        cells = tuple(cell.cell_contents for cell in factory.__closure__ or ())
        blob = pickle.dumps(
            (cells, factory.__defaults__, factory.__kwdefaults__),
            pickle.HIGHEST_PROTOCOL,
        )
    except Exception:  # not a function, an empty cell, a value that will not pickle
        return None
    return hashlib.blake2b(blob).digest()


class _RankSet:
    """One worker per rank and the arena they share: what outlives the
    system that forked it, parked in this process's pool until the next
    system with as many ranks takes it.

    ``forked_with`` is ``(weak reference to the factory every worker
    inherited, digest of what it captured then)``; None once the workers
    disagree on it, or when it cannot be referenced weakly."""

    def __init__(self, size: int) -> None:
        self.size, self.owner = size, os.getpid()
        self.arena = _Arena()
        self.workers: Workers | None = None
        self.forked_with: tuple | None = None

    def holds(self, factory) -> bool:
        """Whether every worker inherited *factory*, which captures the
        same values now."""
        if self.forked_with is None:
            return False
        ref, digest = self.forked_with
        return ref() is factory and digest is not None and _captured(factory) == digest

    def fork(self, ranks, factory, spec: tuple) -> list:
        """Fork a worker for each of *ranks* (replacing any it had), each
        inheriting *factory* and setting up its rank of the system that
        *spec* describes (see :func:`_boot`); returns their set-up
        replies, by rank — None for a worker that died on the way."""
        if self.workers is None:
            self.workers = Workers(self.size, None, name="repro-transport-rank")
            try:
                self.forked_with = weakref.ref(factory), _captured(factory)
            except TypeError:  # not weakly referenceable: never inherited again
                self.forked_with = None
        elif not self.holds(factory):
            self.forked_with = None
        self.workers.setup = functools.partial(_boot, self.arena, factory, spec)
        try:
            return self.workers.replace(ranks)
        finally:
            self.workers.setup = None  # the system's fabric is not the set's to keep

    def stop(self) -> None:
        """Stop the workers and release the arena (idempotent)."""
        if self.workers is not None:
            self.workers.close()
        if self.arena.fd >= 0:
            self.arena.close()


_parked: list[_RankSet] = []
"""This process's pool: at most one rank set, parked by the system that
closed it."""

_POOL_LOCK = threading.Lock()


def _unpark() -> _RankSet | None:
    """Take the parked set out of the pool, if this process owns one (a
    forked child sees its parent's pool, not its own workers)."""
    with _POOL_LOCK:
        parked = _parked.pop() if _parked else None
    return parked if parked is not None and parked.owner == os.getpid() else None


def _claim(size: int, factory) -> _RankSet:
    """A rank set for a system of *size* ranks that *factory* sets up:
    the parked set, when it has *size* ranks and was forked with this
    very *factory*, which captures the same values now; otherwise a new
    set, forked at set-up, and the parked one is stopped first.  A
    factory travels only through ``fork``: one sent by reference would
    resolve, in a worker, to the name as it stood when the worker was
    forked — a ``__main__`` function defined or rebound since would be
    missing there, or stale."""
    parked = _unpark()
    if parked is not None:
        if parked.size == size and parked.holds(factory):
            parked.arena.rewind()
            return parked
        parked.stop()
    return _RankSet(size)


def _park(ranks: _RankSet) -> None:
    """Park a set whose workers are all idle in their loops; the set
    parked before it, if any, is stopped."""
    if ranks.workers is None or ranks.owner != os.getpid():
        ranks.stop()
        return
    with _POOL_LOCK:
        previous = _parked[:]
        _parked[:] = [ranks]
    for old in previous:
        old.stop()


def shutdown() -> None:
    """Stop the parked rank workers, if any (also runs at interpreter
    exit).  The next process-transport system forks afresh."""
    parked = _unpark()
    if parked is not None:
        parked.stop()


atexit.register(shutdown)


def _stop_held(held: list) -> None:
    """A dropped transport's finalizer: stop the set it still holds."""
    while held:
        held.pop().stop()


class ProcessTransport:
    """Rank set-up, rank programs, boundary exchanges and allreduces on
    one resident worker process per rank.

    :meth:`start` runs each rank's set-up in its own worker; :meth:`run`
    sends every command after that — the command contract of
    :class:`~repro.parallel.comm.LockstepComm`, whose collectives
    (``exchange_external`` / ``allreduce_sum`` / ``allreduce_sum_vec``
    / ``halo_mismatch``) are kept on top, each a command of one
    collective, as are its census (``log``) and its fault plans — here a
    genuine SIGKILL, plus a ``delay``.

    The workers outlive the transport: :meth:`close` has them drop the
    system but their rank's factor (:data:`_KEPT`) and parks them with
    their arena in this process's pool (one set), and the next transport
    with as many ranks and the same factory takes them instead of
    forking (see :meth:`cut`); :func:`shutdown` stops them.  A parked
    worker keeps the heap its system freed (the next set-up reuses it)
    and the arena its pages.  ``rank_cpu_s`` adds up, per rank, the
    CPU seconds its worker spent in this transport's commands, set-up
    included.

    ``budget`` (seconds) bounds each wait of a rank on its peers and how
    long the driver lets a command go without any rank advancing: a dead
    peer is a ``RankFailure`` (waiting longer cannot revive it), a wait
    past the budget with everybody alive a ``CommTimeout``.
    ``trace_dir`` makes each worker export its own rank-tagged trace
    (merge them with ``repro trace --merge``).  A transport dropped
    without :meth:`close` stops its workers when it is collected.
    """

    def __init__(
        self,
        domains: list[LocalDomain],
        *,
        budget: float = 30.0,
        trace_dir: str | Path | None = None,
    ) -> None:
        if not 0.0 < budget < math.inf:
            raise ValueError(
                f"budget must be a positive finite number of seconds, got {budget}"
            )
        self.domains = domains
        self.budget = float(budget)
        self._trace_dir = None if trace_dir is None else Path(trace_dir)
        if self._trace_dir is not None:
            self._trace_dir.mkdir(parents=True, exist_ok=True)
        self._held: list[_RankSet] = []  # the rank set, while this transport has it
        self._fab: _Fabric | None = None
        self._floor = 0  # where scratch() rewinds the arena to
        self._setup = None  # (setup, factory) of start()
        self._setups = [0] * len(domains)  # how often each rank was set up
        self._parkable = False  # every worker idle with this system's rank state
        self._census: CommCensus | None = None  # frozen by close()
        self._last_mismatch = 0.0
        self.timeout_count = 0
        self.kills: list[dict] = []
        self.revivals: list[dict] = []
        self.rank_cpu_s = [0.0] * len(domains)
        self._stop = weakref.finalize(self, _stop_held, self._held)

    @classmethod
    def cut(cls, a, node_domain: np.ndarray, factory, *, b: int = 3, **opts) -> "ProcessTransport":
        """The transport of a system that *factory* will set up — the only
        way to one that :meth:`start` can run: it takes a rank set (the
        parked one when it was forked with *factory*) and
        :func:`~repro.parallel.partition.build_domains` cuts *a* into
        arrays staged in that set's arena, so each worker reads its rows
        as shared pages, which nothing pickles.  *node_domain* is a
        partition as :func:`~repro.parallel.partition.as_partition`
        returns it; *opts* are the constructor's."""
        held = _claim(int(node_domain.max()) + 1, factory)
        try:
            transport = cls(build_domains(a, node_domain, b, alloc=held.arena.stage), **opts)
        except BaseException:
            _park(held)  # untouched: back to the pool (or stopped, never forked)
            raise
        transport._held.append(held)
        return transport

    @property
    def size(self) -> int:
        return len(self.domains)

    @property
    def log(self) -> CommCensus:
        if self._census is not None:
            return self._census
        fab, zeros = self._fab, [0] * self.size
        if fab is None:
            return census(self.domains, zeros, zeros)
        return census(self.domains, fab.n_exchanges, fab.n_allreduces)

    @property
    def halo(self) -> list[np.ndarray]:
        """Every rank's halo-extended vector: what ``yield HALO`` exchanges."""
        return self._fab.halo

    @property
    def pids(self) -> list[int | None]:
        """The worker process of each rank (``None`` before :meth:`start`
        and after :meth:`close`)."""
        if not self._held or self._held[0].workers is None:
            return [None] * self.size
        return [self._workers.process(rank).pid for rank in range(self.size)]

    @property
    def _workers(self) -> Workers:
        return self._held[0].workers

    def scratch(self):
        """Free the previous command's shared arrays and return the
        allocator of the next one's — zeroed arrays this process and
        every worker see alike, even a worker forked before them: the
        Krylov state and checkpoint slots of a solve, the values of a
        refactor.  One set is alive at a time; callers copy out what
        outlives it."""
        self._check_open()
        arena = self._held[0].arena
        arena.top = self._floor
        return arena.alloc

    def _check_open(self) -> None:
        if not self._stop.alive:
            raise RuntimeError("the transport is closed")

    # -- workers --------------------------------------------------------

    def start(self, setup, factory) -> list:
        """Every rank's worker runs ``setup(rank, state, domain,
        factory)`` — its rank's set-up, side by side with its peers —
        keeps *state* for the transport's life and replies with what
        *setup* returned; returns those replies by rank.

        The workers are the set :meth:`cut` took, forked with *factory*
        — so it may be a closure.  A new set forks here and each worker
        sets up its rank as it starts, with the system inherited; a
        parked set gets the set-up as a command whose domains are the
        arena's pages.  *setup* is a module-level function."""
        self._check_open()
        if not self._held:
            raise RuntimeError("a process transport to start comes from ProcessTransport.cut")
        held = self._held[0]
        fresh = held.workers is None
        if fresh:
            held.arena.unstage()  # the workers inherit the domains with this process
        else:
            held.arena.place()  # the domains cut() staged
        self._fab = _Fabric(held.arena, self.domains, self.budget)
        self._floor = held.arena.top
        self._setup = setup, factory
        replies = self._set_up(range(self.size), fork=fresh)
        self._parkable = True
        return replies

    def _set_up(self, ranks, *, fork: bool) -> list:
        """Set the given ranks up — on newly forked workers (replacing
        any they had) when *fork*, else by a command to the workers they
        have — and return their replies.  What a fork captures travels
        with the command: the driver's CPU mask, the trace directory,
        the budget (in the fabric).  A worker the command finds dead —
        killed while its set was parked, say — is replaced by a fork.
        Set-up waits on nobody: no budget."""
        ranks, held = list(ranks), self._held[0]
        setup, factory = self._setup
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else None
        trace = None if self._trace_dir is None else (self._trace_dir, self._setups)
        spec = self._fab, setup, cpus, trace
        replies = {}
        if not fork:
            message = held.arena.dumps(spec)
            for rank in ranks:
                held.workers.send(rank, _rank_setup, message)
            replies = {rank: held.workers.receive(rank) for rank in ranks}
        dead = [rank for rank in ranks if replies.get(rank) is None]
        if dead:
            replies.update(zip(dead, held.fork(dead, factory, spec)))
        done, warned, failure = {}, [], None
        for rank in ranks:
            failure = self._file(rank, replies[rank], done, warned) or failure
        for rank in done:
            self._setups[rank] += 1
        return self._results(ranks, done, warned, failure)

    def run(self, fn, *args) -> list:
        """Every rank worker runs ``fn(rank, state, *args)``; returns the
        ranks' results.

        *fn* is a module-level function (it crosses the pipe by
        reference); when it returns a generator that is a rank program —
        see :func:`~repro.parallel.distributed.parallel_cg` — which the
        worker advances, serving each collective it yields.  Shared
        arrays in *args* arrive as the same memory.  Raises
        ``RankFailure`` / ``CommTimeout`` / whatever a rank raised."""
        self._check_open()
        fab = self._fab
        fab.seq[:] = 0
        fab.abort[0] = 0
        # a failed command leaves the ranks at different exchanges
        fab.exchange_index[:] = fab.exchange_index.max()
        message = self._held[0].arena.dumps((fn, args, fab.kill_plan, fab.fault_plan))
        self._parkable = False
        for rank in range(self.size):
            self._workers.send(rank, _command, message)
        return self._collect()

    def _collect(self) -> list:
        """Sleep until every rank replied to the current command, or it
        failed; a failed command is called off for all."""
        fab, ranks = self._fab, range(self.size)
        waiting = {self._workers.conn(rank): rank for rank in ranks}
        done: dict[int, object] = {}
        warned: list = []
        failure = None
        t0 = time.monotonic()
        progress = fab.seq.copy()
        while waiting and failure is None:
            ready = mp_wait(list(waiting), timeout=self.budget)
            if not ready and (fab.seq == progress).all():
                # nothing ended for a whole budget and not even the
                # sequence counters moved: a wedge nobody is waiting on
                failure = CommTimeout(
                    "command", sorted(waiting.values()), time.monotonic() - t0
                )
            progress = fab.seq.copy()
            for conn in sorted(ready, key=waiting.get):
                rank = waiting.pop(conn)
                found = self._file(rank, self._workers.receive(rank), done, warned)
                failure = failure or found
        if isinstance(failure, CommTimeout):
            self.timeout_count += 1
        if failure is not None:
            self._settle(waiting)
        self._parkable = True  # every worker is back in its loop
        return self._results(ranks, done, warned, failure)

    def _file(self, rank: int, reply, done: dict, warned: list):
        """File one rank's reply; returns the failure it reports, if any."""
        if reply is None:  # the process is gone and left no reply
            self._note_death(rank)
            return RankFailure(rank, 1)
        kind, payload, caught = reply
        warned += caught
        if kind == "done":
            done[rank], cpu = payload
            self.rank_cpu_s[rank] += cpu
            return None
        exc, where = payload
        if isinstance(exc, _Aborted):  # a bystander: the rank that called it off follows
            return None
        exc.__cause__ = RuntimeError(f"in rank {rank}'s worker:\n{where}")
        return exc

    @staticmethod
    def _results(ranks, done: dict, warned: list, failure) -> list:
        if failure is not None:
            raise failure
        for message, category in warned:
            warnings.warn(message, category, stacklevel=4)
        return [done[rank] for rank in ranks]

    def _settle(self, waiting: dict) -> None:
        """Call the current command off: wake every waiter, take the
        replies of those that come back within ``REAP_GRACE_S``, and
        replace those that do not — a worker that is not in its command
        loop cannot be trusted with the next command."""
        self._fab.abort[0] = 1
        end = time.monotonic() + REAP_GRACE_S
        while waiting:
            ready = mp_wait(list(waiting), timeout=max(0.0, end - time.monotonic()))
            if not ready:
                break
            for conn in ready:
                rank = waiting.pop(conn)
                if self._workers.receive(rank) is None:
                    self._note_death(rank)
        if waiting:
            self._set_up(sorted(waiting.values()), fork=True)

    def _note_death(self, rank: int) -> None:
        """Record an injected kill that fired (an external one has no plan)."""
        plan = self._fab.kill_plan
        at = plan.get(rank)
        index = int(self._fab.exchange_index[rank])
        if at is not None and index >= at:
            del plan[rank]
            self.kills.append({"rank": rank, "exchange": index})

    def revive(self, rank: int):
        """The recovery hand-off of
        :meth:`~repro.parallel.distributed.DistributedSystem.recover_rank`:
        fork a replacement for *rank*'s dead worker, which runs the
        set-up again on the driver's (recovered) domain — the factor died
        with the old worker.  Returns its set-up reply.  The snapshot the
        solve resumes from is shared memory and outlived the dead process."""
        self._check_open()
        self.revivals.append(
            {"rank": int(rank), "exchange": int(self._fab.exchange_index.max())}
        )
        self._parkable = False
        reply = self._set_up([rank], fork=True)[0]
        self._parkable = True
        return reply

    def close(self) -> None:
        """Park the rank workers and their arena in the pool for the next
        system, each worker having dropped this system's state but its
        factor (:func:`_forget`) — or stop
        them, when a set-up or a command did not complete; the census
        stays readable.  Idempotent; a transport collected without it
        stops its workers."""
        if self._held:
            self._census = self.log
            held = self._held.pop()
            if self._parkable and self._forget(held.workers):
                _park(held)
            else:
                held.stop()
        self._stop()

    def _forget(self, workers: Workers) -> bool:
        """Have every worker drop this system's state; whether all did."""
        for rank in range(self.size):
            workers.send(rank, _forget)
        replies = [workers.receive(rank) for rank in range(self.size)]
        return all(reply is not None and reply[0] == "done" for reply in replies)

    # -- fault injection (the robustness harness) -----------------------

    def inject_kill(self, rank: int, at_exchange: int) -> None:
        """SIGKILL the live worker for *rank* at halo exchange *at_exchange*.

        A genuine ``kill -9`` of a running OS process: the driver is asleep
        while a command runs, so the rank delivers the signal to itself on
        entering that exchange (a global index that keeps counting across
        commands, so the plan fires once).  It dies with whatever state
        it had, and detection happens through its pipe like any external
        kill."""
        check_fault(self.size, rank)
        self._fab.kill_plan[int(rank)] = int(at_exchange)

    def inject_worker_fault(
        self,
        rank: int,
        exchange: int,
        *,
        delay: float = 0.0,
        corrupt: str | None = None,
    ) -> None:
        """Arm a worker-side fault for halo exchange *exchange*.

        ``delay`` makes the rank sleep that many seconds before it
        publishes (longer than the transport's budget → ``CommTimeout``;
        shorter → absorbed by its peers' wait).  ``corrupt`` ("nan" /
        "bitflip") corrupts one received ghost value *after* the copy, so
        the checksums must catch it end-to-end.  One-shot: exchange
        indices are global, the rolled-back re-execution runs clean."""
        check_fault(self.size, rank, corrupt)
        self._fab.fault_plan[(int(rank), int(exchange))] = {
            "delay": float(delay), "corrupt": corrupt,
        }

    # -- LockstepComm surface: one collective per command ---------------

    def exchange_external(self, vectors: list[np.ndarray]) -> None:
        """Fill every domain's external DOF slots through the workers."""
        if len(vectors) != self.size:
            raise ValueError(f"expected {self.size} vectors, got {len(vectors)}")
        ni = [dom.n_internal * dom.b for dom in self.domains]
        for shared, vec, n in zip(self.halo, vectors, ni):
            shared[:n] = vec[:n]
        self._last_mismatch = max(self.run(_halo_exchange))
        for shared, vec, n in zip(self.halo, vectors, ni):
            vec[n:] = shared[n:]

    def halo_mismatch(self, vectors: list[np.ndarray]) -> float:
        """Receiver-vs-sender checksum disagreement of the last exchange.

        Unlike the lockstep probe this never inspects another rank's
        buffer: every receiver compared what it read with what the
        sender stored (zero extra messages)."""
        return self._last_mismatch

    def allreduce_sum_vec(self, contributions: list[np.ndarray]) -> np.ndarray:
        """Element-wise global sum of one short vector per rank."""
        if len(contributions) != self.size:
            raise ValueError(
                f"expected {self.size} contributions, got {len(contributions)}"
            )
        arrs = [check_contribution(c) for c in contributions]
        if any(a.shape != arrs[0].shape for a in arrs):
            raise ValueError("each rank must contribute a vector of equal length")
        return self.run(_allreduce, arrs)[0]
