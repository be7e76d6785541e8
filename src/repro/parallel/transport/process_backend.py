"""Real-process transport: resident SPMD rank workers over shared memory.

One worker per rank for the system's whole life (DESIGN.md section 13),
on the forked command workers of :mod:`repro.utils.workers`:
:meth:`ProcessTransport.start` forks them and each runs its own rank's
set-up, side by side with its peers, keeping the factor; every later
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

import inspect
import io
import math
import mmap
import os
import pickle
import signal
import tempfile
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
from repro.parallel.partition import LocalDomain
from repro.resilience.taxonomy import CommTimeout, RankFailure
from repro.utils.workers import REAP_GRACE_S, Workers

__all__ = ["ProcessTransport"]


def _checksum(data: np.ndarray) -> tuple[float, int]:
    """Payload checksum: (float64 sum, XOR of the values' bit patterns).

    The XOR catches any corrupted value — one flipped bit, however small
    the value it lands on, or a NaN — and the sum says how far apart the
    two payloads are (NaN/Inf when either carries poison)."""
    return float(np.sum(data)), int(np.bitwise_xor.reduce(data.view(np.int64)))


# ----------------------------------------------------------------------
# shared memory
# ----------------------------------------------------------------------


class _Fabric:
    """The memory the driver and every rank worker share: one file (a
    memfd) that the driver grows and every process maps — the workers
    inherit its descriptor — so an array in it, named by ``(offset,
    shape, dtype)``, reaches a worker forked before the array existed.

    Its bottom holds the transport-lifetime arrays every collective
    uses; above ``floor`` is a bump allocator that
    :meth:`ProcessTransport.scratch` rewinds."""

    ALIGN = 64  # one cache line: two ranks' arrays never share one

    def __init__(self, domains: list[LocalDomain], budget: float) -> None:
        if hasattr(os, "memfd_create"):
            self.fd = os.memfd_create("repro-transport")
        else:  # an unlinked temporary file serves the same purpose
            self.fd, path = tempfile.mkstemp(prefix="repro-transport-")
            os.unlink(path)
        self.top, self._maps = 0, []  # (address, mmap) pairs, newest last
        nd, alloc = len(domains), self.alloc
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
        self.floor = self.top
        # fault plans: the driver's ride every command to its workers
        self.kill_plan: dict[int, int] = {}
        self.fault_plan: dict[tuple[int, int], dict] = {}

    def alloc(self, n: int, dtype=np.float64) -> np.ndarray:
        """A zeroed array of *n* items (bump allocation)."""
        dtype = np.dtype(dtype)
        offset = -(-self.top // self.ALIGN) * self.ALIGN
        self.top = offset + int(n) * dtype.itemsize
        size = os.fstat(self.fd).st_size
        if self.top > size:  # grow geometrically: few mappings, sparse file
            os.ftruncate(self.fd, max(self.top, 2 * size, 1 << 20))
        arr = self.view(offset, (int(n),), dtype.str)
        arr[:] = 0
        return arr

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
        """The name of an array in the fabric (a pickle persistent id);
        None for anything else, which pickles by value."""
        if type(obj) is not np.ndarray or not obj.flags.c_contiguous:
            return None
        address = obj.ctypes.data
        for base, mm in self._maps:
            if base <= address and address + obj.nbytes <= base + len(mm):
                return address - base, obj.shape, obj.dtype.str
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


def _command(rank, state, message: bytes):
    """A transport command as its worker runs it: the fabric-pickled
    ``(fn, args, kill plan, fault plan)`` of :meth:`ProcessTransport.run`."""
    link = state.link
    fn, args, link.fab.kill_plan, link.fab.fault_plan = link.fab.loads(message)
    try:
        return link.run(fn, state, args)
    finally:
        _export_trace(rank, state)


def _halo_exchange(rank, state):
    return (yield HALO)


def _allreduce(rank, state, contributions):
    return (yield contributions[rank])


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------


class ProcessTransport:
    """Rank set-up, rank programs, boundary exchanges and allreduces on
    one resident worker process per rank.

    :meth:`start` forks the workers and runs each rank's set-up in its
    own; :meth:`run` sends every command after that — the command
    contract of :class:`~repro.parallel.comm.LockstepComm`, whose
    collectives (``exchange_external`` / ``allreduce_sum`` /
    ``allreduce_sum_vec`` / ``halo_mismatch``) are kept on top, each a
    command of one collective, as are its census (``log``) and its fault
    plans — here a genuine SIGKILL, plus a ``delay``.

    ``budget`` (seconds) bounds each wait of a rank on its peers and how
    long the driver lets a command go without any rank advancing: a dead
    peer is a ``RankFailure`` (waiting longer cannot revive it), a wait
    past the budget with everybody alive a ``CommTimeout``.
    ``trace_dir`` makes each worker export its own rank-tagged trace
    (merge them with ``repro trace --merge``).  A transport dropped
    without :meth:`close` still stops its workers when it is collected.
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
        self._fab = _Fabric(domains, self.budget)
        self._workers: Workers | None = None
        self._forks = [0] * len(domains)  # how often each rank forked
        self._last_mismatch = 0.0
        self.timeout_count = 0
        self.kills: list[dict] = []
        self.revivals: list[dict] = []
        self._stop = weakref.finalize(self, self._fab.close)

    @property
    def size(self) -> int:
        return len(self.domains)

    @property
    def log(self) -> CommCensus:
        fab = self._fab
        return census(self.domains, fab.n_exchanges, fab.n_allreduces)

    @property
    def halo(self) -> list[np.ndarray]:
        """Every rank's halo-extended vector: what ``yield HALO`` exchanges."""
        return self._fab.halo

    @property
    def pids(self) -> list[int | None]:
        """The worker process of each rank (``None`` before :meth:`start`)."""
        if self._workers is None:
            return [None] * self.size
        return [self._workers.process(rank).pid for rank in range(self.size)]

    def scratch(self):
        """Free the previous command's shared arrays and return the
        allocator of the next one's — zeroed arrays this process and
        every worker see alike, even a worker forked before them: the
        Krylov state and checkpoint slots of a solve, the values of a
        refactor.  One set is alive at a time; callers copy out what
        outlives it."""
        self._check_open()
        self._fab.top = self._fab.floor
        return self._fab.alloc

    def _check_open(self) -> None:
        if not self._stop.alive:
            raise RuntimeError("the transport is closed")

    # -- workers --------------------------------------------------------

    def start(self, setup) -> list:
        """Fork one worker per rank.  Worker *r* runs ``setup(r, state)``
        — its rank's set-up, side by side with its peers — keeps *state*
        for the transport's life and replies with what *setup* returned;
        returns those replies by rank.  *setup* is inherited through
        ``fork``, so it may be a closure."""
        fab, trace_dir, forks = self._fab, self._trace_dir, self._forks

        def rank_setup(rank, state):  # in the rank's worker
            state.trace = None
            if trace_dir is not None:  # this rank's own observability session
                tag = f".{forks[rank]}" if forks[rank] else ""
                state.trace = obs.enable(), trace_dir / f"trace.rank{rank}{tag}.jsonl"
            if hasattr(os, "sched_setaffinity"):
                # unpinned, the kernel co-locates two ranks that keep waking each other
                cpus = sorted(os.sched_getaffinity(0))
                os.sched_setaffinity(0, {cpus[rank % len(cpus)]})
            state.link = _RankLink(rank, fab)
            try:
                with span("rank.setup", rank=rank):
                    return state.link.run(setup, state, ())
            finally:
                _export_trace(rank, state)

        self._workers = Workers(self.size, rank_setup, name="repro-transport-rank")
        return self._spawn(range(self.size))

    def _spawn(self, ranks) -> list:
        """Fork the given ranks' workers (replacing any they had); returns
        their set-up replies.  Set-up waits on nobody: no budget."""
        ranks = list(ranks)
        done, warned = {}, []
        failures = [
            self._file(rank, reply, done, warned)
            for rank, reply in zip(ranks, self._workers.replace(ranks))
        ]
        for rank in ranks:
            self._forks[rank] += 1
        return self._results(ranks, done, warned, next(filter(None, failures), None))

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
        message = fab.dumps((fn, args, fab.kill_plan, fab.fault_plan))
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
        return self._results(ranks, done, warned, failure)

    def _file(self, rank: int, reply, done: dict, warned: list):
        """File one rank's reply; returns the failure it reports, if any."""
        if reply is None:  # the process is gone and left no reply
            self._note_death(rank)
            return RankFailure(rank, 1)
        kind, payload, caught = reply
        warned += caught
        if kind == "done":
            done[rank] = payload
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
            self._spawn(sorted(waiting.values()))

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
        set-up again on the driver's (recovered) data — the factor died
        with the old worker.  Returns its set-up reply.  The snapshot the
        solve resumes from is shared memory and outlived the dead process."""
        self.revivals.append(
            {"rank": int(rank), "exchange": int(self._fab.exchange_index.max())}
        )
        return self._spawn([rank])[0]

    def close(self) -> None:
        """Stop every worker (idempotent; also runs when the transport is
        collected without it)."""
        if self._workers is not None:
            self._workers.close()
        self._stop()

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
