"""Real-process transport: autonomous SPMD rank workers over shared memory.

Architecture: **an epoch of rank workers per solve** (DESIGN.md section
13).  The driver holds the domains, factors and right-hand sides;
:meth:`ProcessTransport.run_ranks` forks one worker per rank, which
inherits all of that, takes one CPU of the affinity mask and runs its
rank program (the CG body of
:func:`~repro.parallel.distributed.parallel_cg`) to the end by itself.
The ranks meet only at the program's collectives, through shared memory
(``multiprocessing.RawArray``) and one sequence counter per rank:

- **halo exchange** — a rank stores a checksum of every boundary region
  a neighbor will read, publishes its next sequence number, waits for
  the owners of its external DOFs to publish theirs and gathers those
  DOFs from the owners' vectors (internal and external regions are
  disjoint, so the concurrent reads and writes are race-free by
  construction).  It checksums what it received against what the sender
  stored: the owner/ghost probe, with zero additional messages;
- **allreduce** — a rank stores its contribution in its row of a
  double-buffered table, publishes, waits for everybody, and applies the
  exact same rank-ordered ``np.sum`` as
  :class:`~repro.parallel.comm.LockstepComm` — the fixed reduction order
  that makes process-transport dot products bit-identical to the
  emulation.

A wait is ``check → sched_yield → abort flag → deadline``: yielding
instead of sleeping keeps a hand-over at microseconds, and lets more
ranks than CPUs time-share instead of stalling.  The driver sleeps on
the workers' result pipes for the whole epoch and only classifies how it
ended:

- a pipe reports EOF without a result — the worker died
  (:meth:`ProcessTransport.inject_kill`, or any external ``kill -9``) →
  the abort flag wakes the waiters and
  :class:`~repro.resilience.taxonomy.RankFailure` fires.  Nothing needs
  respawning: recovery rebuilds the rank's data in the driver and the
  next epoch's fork inherits it;
- a wait outlived ``TransportPolicy.budget`` with every process
  alive → :class:`~repro.resilience.taxonomy.CommTimeout` — rollback, no
  respawn.  A *merely slow* peer is absorbed by the wait;
- a rank program raised (the halo probe tripped) → the exception is
  re-raised in the driver.

The publish/consume order relies on stores becoming visible in program
order (x86-TSO); a torn halo on a weaker machine would trip the checksum.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os
import pickle
import signal
import time
import traceback
from collections import deque
from multiprocessing.connection import Connection, wait as mp_wait
from pathlib import Path

import numpy as np

from repro import obs
from repro.obs import metric_inc, span
from repro.parallel.comm import HALO, PER_EXCHANGE_RETENTION, CommLog
from repro.parallel.partition import LocalDomain
from repro.parallel.transport.policy import TransportPolicy
from repro.resilience.taxonomy import CommTimeout, RankFailure

__all__ = ["ProcessTransport", "is_available"]

REDUCE_WIDTH = 8
"""Widest allreduce contribution the shared table holds (CG needs 3)."""

REAP_GRACE_S = 0.5
"""How long an ended epoch waits for its workers to leave by themselves
(they see the abort flag within one wait-loop turn) before SIGKILL."""


def is_available() -> bool:
    """The backend needs ``fork`` (workers inherit domains and buffers)."""
    return "fork" in mp.get_all_start_methods()


def _checksum(data: np.ndarray) -> tuple[float, bool]:
    """Payload checksum: (float64 sum, all-finite flag).

    The sum catches value corruption (a flipped bit moves it), the flag
    catches NaN/Inf poison (NaN sums are sticky but two NaN sums do not
    compare unequal the way the probe needs)."""
    return float(np.sum(data)), bool(np.isfinite(data).all())


def _openblas_thread_controls() -> list[tuple]:
    """``(get_num_threads, set_num_threads)`` of every OpenBLAS loaded
    into this process (numpy and scipy each ship one)."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:  # not Linux: nothing to look the libraries up in
        return []
    controls = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    controls.append((get, set_))
    return controls


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


class _Aborted(Exception):
    """The epoch was called off (abort flag) while this rank waited."""


class _RankLink:
    """One rank's end of the shared-memory fabric (lives in its worker)."""

    def __init__(self, rank: int, tr: "ProcessTransport", halo: list[np.ndarray]) -> None:
        self.rank, self.tr, self.halo = rank, tr, halo
        doms, dom = tr.domains, tr.domains[rank]
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
        self.everyone = np.arange(tr.size)
        self.sizes = [dst.size * 8 for dst, _ in self.recv.values()]
        self.log = CommLog(rank=rank)  # forwards comm.* metrics when tracing
        self.budget = tr.policy.budget
        self.seq = 0
        self.reductions = 0

    def _publish_and_wait(self, kind: str, ranks: np.ndarray) -> None:
        """Announce this rank's next sync, then wait for *ranks* to reach it."""
        tr = self.tr
        self.seq += 1
        tr._seq[self.rank] = self.seq
        with span("rank.wait", rank=self.rank, kind=kind):
            end = time.monotonic() + self.budget
            while True:
                behind = tr._seq[ranks] < self.seq
                if not behind.any():
                    return
                os.sched_yield()
                if tr._abort[0]:
                    raise _Aborted
                if time.monotonic() > end:
                    raise CommTimeout(kind, ranks[behind], self.budget)

    def exchange(self) -> float:
        """Boundary exchange of this rank's halo vector; returns the worst
        receiver-vs-sender checksum disagreement (``inf`` on NaN/Inf)."""
        tr, rank = self.tr, self.rank
        index = int(tr._exchange_index[rank])
        if tr._kill_plan.get(rank, index + 1) <= index:
            os.kill(os.getpid(), signal.SIGKILL)
        tr._exchange_index[rank] = index + 1
        plan = tr._fault_plan.get((rank, index), {})
        if plan.get("delay"):
            time.sleep(plan["delay"])
        mine = self.halo[rank]
        for nbr, src in self.send.items():
            tr._checksums[rank, nbr] = _checksum(mine[src])
        self._publish_and_wait("halo", self.owners)
        worst = 0.0
        with span("halo_exchange", rank=rank) as sp:
            for i, (owner, (dst, src)) in enumerate(self.recv.items()):
                mine[dst] = self.halo[owner][src]
                if i == 0 and plan.get("corrupt") == "nan":
                    mine[dst[0]] = np.nan
                elif i == 0 and plan.get("corrupt") == "bitflip":
                    flipped = mine[dst[:1]].view(np.int64) ^ (np.int64(1) << 40)
                    mine[dst[0]] = flipped.view(np.float64)[0]
                rsum, rfinite = _checksum(mine[dst])
                ssum, sfinite = tr._checksums[owner, rank]
                if not (rfinite and sfinite):
                    worst = float("inf")
                worst = max(worst, abs(rsum - ssum))
            tr._n_exchanges[rank] += 1
            sp.set(messages=len(self.sizes), bytes=self.log.record_exchange(self.sizes))
        return worst

    def allreduce(self, contribution) -> float | np.ndarray:
        """Global sum of one float, or one short vector, per rank."""
        vec = np.atleast_1d(np.asarray(contribution, dtype=np.float64))
        if vec.ndim != 1 or vec.size > REDUCE_WIDTH:
            raise ValueError(
                f"an allreduce contribution is a float or a 1-D vector of at "
                f"most {REDUCE_WIDTH} entries, got shape {vec.shape}"
            )
        # two tables, alternating: a rank may write its row for reduction
        # n+2 only after passing n+1, which everybody reached after
        # reading n — so nobody's row is overwritten while being summed
        self.reductions += 1
        table = self.tr._reduce[self.reductions % 2]
        table[self.rank, : vec.size] = vec
        self._publish_and_wait("allreduce", self.everyone)
        # a contiguous (ranks, k) stack summed over axis 0: the identical
        # np.sum as LockstepComm — the bit-identity of the two transports
        total = np.array(table[:, : vec.size]).sum(axis=0)
        self.tr._n_allreduces[self.rank] += 1
        self.log.record_allreduce()
        return total if np.ndim(contribution) else float(total[0])


def _worker_main(
    rank: int, tr: "ProcessTransport", program, halo: list[np.ndarray],
    result: Connection, trace_file: Path | None,
) -> None:
    """One rank's epoch: advance its program, serving each collective it
    yields, and send how it ended to the driver.

    Runs in a forked child.  The observability session it inherited
    belongs to the driver — drop it and (when per-rank tracing was
    requested) open this rank's own, exported as JSON lines on exit.
    """
    obs.disable()
    sess = obs.enable() if trace_file else None
    if hasattr(os, "sched_setaffinity"):
        # unpinned, the kernel co-locates two ranks that keep waking each other
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[rank % len(cpus)]})
    link = _RankLink(rank, tr, halo)
    try:
        gen, reply = program(rank), None
        while True:
            with span("rank.compute", rank=rank):
                request = gen.send(reply)
            reply = link.exchange() if request is HALO else link.allreduce(request)
    except StopIteration as stop:
        message = ("done", stop.value)
    except _Aborted:
        message = ("aborted", None)
    except Exception as exc:  # boundary: the driver re-raises it
        tr._abort[0] = 1  # nobody will meet the waiting peers
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # would not survive the pipe as itself
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        message = ("raised", (exc, traceback.format_exc()))
    if sess is not None:
        obs.export_jsonl(sess.tracer, trace_file, sess.metrics, rank=rank)
    result.send(message)


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------


class ProcessTransport:
    """Rank programs, boundary exchanges and allreduces on one real
    worker process per rank.

    :meth:`run_ranks` is what :func:`~repro.parallel.distributed.parallel_cg`
    uses: one epoch of autonomous workers.  The
    :class:`~repro.parallel.comm.LockstepComm` surface
    (``exchange_external`` / ``allreduce_sum`` / ``allreduce_sum_vec`` /
    ``halo_mismatch`` / ``log``) is kept on top of it — each call is an
    epoch of one collective — together with genuine-SIGKILL and
    worker-fault injection and ``merged_worker_log()``, which reduces
    the per-rank censuses to the aggregate view.

    ``policy`` bounds every wait (see :class:`TransportPolicy`);
    ``trace_dir`` makes each worker record its own rank-tagged
    observability session, exported as one JSONL file per rank and epoch
    (merge them with ``repro trace --merge``).
    """

    def __init__(
        self,
        domains: list[LocalDomain],
        *,
        policy: TransportPolicy | None = None,
        trace_dir: str | Path | None = None,
    ) -> None:
        if not is_available():
            raise RuntimeError(
                "the process transport requires the 'fork' start method "
                "(workers inherit domains and shared buffers); this platform "
                "only offers " + str(mp.get_all_start_methods())
            )
        self.domains = domains
        self.policy = policy or TransportPolicy()
        self._trace_dir = None if trace_dir is None else Path(trace_dir)
        if self._trace_dir is not None:
            self._trace_dir.mkdir(parents=True, exist_ok=True)
        nd = len(domains)
        self._ctx = mp.get_context("fork")
        self._blas = _openblas_thread_controls()
        self._halo = [self.shared_array(dom.n_local * dom.b) for dom in domains]
        # per rank: last published sync (reset every epoch); global index of
        # its next exchange and its census (both count across epochs)
        self._seq, self._exchange_index, self._n_exchanges, self._n_allreduces = (
            self.shared_array(nd, np.int64) for _ in range(4)
        )
        self._abort = self.shared_array(1, np.int64)
        self._reduce = self.shared_array(2 * nd * REDUCE_WIDTH).reshape(
            2, nd, REDUCE_WIDTH
        )
        # [sender, receiver] -> (sum, finite) of the region receiver reads
        self._checksums = self.shared_array(nd * nd * 2).reshape(nd, nd, 2)
        self._procs: list = []
        self._epochs = 0
        self._last_mismatch = 0.0
        self._kill_plan: dict[int, int] = {}
        self._fault_plan: dict[tuple[int, int], dict] = {}
        self.timeout_count = 0
        self.kills: list[dict] = []
        self.revivals: list[dict] = []
        self._closed = False

    @property
    def size(self) -> int:
        return len(self.domains)

    def shared_array(self, n: int, dtype=np.float64) -> np.ndarray:
        """A zeroed array that this process and every worker forked from
        it afterwards see alike."""
        code = "q" if dtype == np.int64 else "d"
        return np.frombuffer(self._ctx.RawArray(code, int(n)), dtype=dtype)

    # -- epochs ---------------------------------------------------------

    def run_ranks(self, program, halo: list[np.ndarray]) -> list:
        """Run ``program(rank)`` — a generator yielding collectives, see
        :func:`~repro.parallel.distributed.parallel_cg` — in one forked
        worker per rank; returns the ranks' return values.

        *halo* holds every rank's halo-extended vector (from
        :meth:`shared_array`): what ``yield HALO`` exchanges.  Raises
        ``RankFailure`` / ``CommTimeout`` / whatever a rank raised; the
        workers are always reaped before this returns, so their CPU time
        is the caller's children's."""
        if self._closed:
            raise RuntimeError("the transport is closed")
        self._seq[:] = 0
        self._abort[0] = 0
        # a failed epoch leaves the ranks at different exchanges
        self._exchange_index[:] = self._exchange_index.max()
        self._epochs += 1
        tag = "" if self._epochs == 1 else f".epoch{self._epochs}"
        readers, self._procs = [], []
        # A rank is one CPU: its workers inherit a single-threaded BLAS (a
        # thread pool inside a one-CPU rank spins against itself — 10x
        # slower on a 44k-DOF solve; limiting it *in* the child spawns a
        # pool thread that spins there for 0.1 s).  The driver sleeps
        # through the epoch and gets its setting back after it.
        blas_threads = [get() for get, _ in self._blas]
        for _, set_threads in self._blas:
            set_threads(1)
        try:
            for rank in range(self.size):
                trace_file = self._trace_dir and (
                    self._trace_dir / f"trace.rank{rank}{tag}.jsonl"
                )
                reader, writer = self._ctx.Pipe(duplex=False)
                readers.append(reader)
                proc = self._ctx.Process(
                    target=_worker_main,
                    args=(rank, self, program, halo, writer, trace_file),
                    name=f"repro-transport-rank{rank}",
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
                # the worker holds the only write end now: its death is
                # an EOF on the reader
                writer.close()
            return self._supervise(readers)
        finally:
            self._reap()
            for reader in readers:
                reader.close()
            for (_, set_threads), n in zip(self._blas, blas_threads):
                set_threads(n)

    def _supervise(self, readers: list[Connection]) -> list:
        """Sleep until every rank reported, or the epoch failed."""
        t0 = time.monotonic()
        budget = self.policy.budget
        waiting = {reader: rank for rank, reader in enumerate(readers)}
        done: dict[int, object] = {}
        progress = self._seq.copy()
        while waiting:
            ready = mp_wait(list(waiting), timeout=budget)
            if not ready and (self._seq == progress).all():
                # nothing ended for a whole budget and not even the
                # sequence counters moved: a wedge nobody is waiting on
                raise self._timed_out(
                    CommTimeout(
                        "epoch",
                        sorted(waiting.values()),
                        time.monotonic() - t0,
                    )
                )
            progress = self._seq.copy()
            for reader in sorted(ready, key=waiting.get):
                rank = waiting.pop(reader)
                try:
                    kind, payload = reader.recv()
                except EOFError:  # the process is gone and left no result
                    self._note_death(rank)
                    raise RankFailure(rank, 1) from None
                if kind == "done":
                    done[rank] = payload
                elif kind == "raised":
                    exc, where = payload
                    if isinstance(exc, CommTimeout):
                        self._timed_out(exc)
                    raise exc from RuntimeError(f"in rank {rank}'s worker:\n{where}")
                # "aborted": a bystander; the rank that called it off follows
        return [done[rank] for rank in range(self.size)]

    def _timed_out(self, exc: CommTimeout) -> CommTimeout:
        self.timeout_count += 1
        metric_inc("comm.timeouts", op=exc.op)
        return exc

    def _note_death(self, rank: int) -> None:
        """Record an injected kill that fired (an external one has no plan)."""
        at = self._kill_plan.get(rank)
        index = int(self._exchange_index[rank])
        if at is not None and index >= at:
            del self._kill_plan[rank]
            self.kills.append({"rank": rank, "exchange": index})

    def _reap(self) -> None:
        """Join every worker of the epoch, SIGKILLing what will not leave."""
        if any(proc.is_alive() for proc in self._procs):
            self._abort[0] = 1
        end = time.monotonic() + REAP_GRACE_S
        for proc in self._procs:
            proc.join(timeout=max(0.0, end - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join()

    def revive(self, rank: int) -> None:
        """The recovery hand-off of
        :meth:`~repro.parallel.distributed.DistributedSystem.recover_rank`.

        Nothing to fork here: the driver has rebuilt the rank's data and
        the next epoch's worker inherits it; the snapshot the solve
        resumes from is in shared memory and outlived the dead process."""
        self.revivals.append(
            {"rank": int(rank), "exchange": int(self._exchange_index.max())}
        )

    def close(self) -> None:
        """Refuse further epochs (every epoch already reaped its workers)."""
        self._closed = True

    # -- fault injection (the robustness harness) -----------------------

    def inject_kill(self, rank: int, at_exchange: int) -> None:
        """SIGKILL the live worker for *rank* at halo exchange *at_exchange*.

        A genuine ``kill -9`` of a running OS process: the driver sleeps
        through an epoch, so the rank delivers the signal to itself on
        entering that exchange (a global index that keeps counting
        across epochs, so the plan fires once).  It dies with whatever
        state it had, and detection happens through its result pipe
        like any external kill."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside 0..{self.size - 1}")
        self._kill_plan[int(rank)] = int(at_exchange)

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
        publishes (longer than the policy budget → ``CommTimeout``;
        shorter → absorbed by its peers' wait).  ``corrupt`` ("nan" /
        "bitflip") corrupts one received ghost value *after* the copy, so
        the checksums must catch it end-to-end.  One-shot: exchange
        indices are global, the rolled-back re-execution runs clean."""
        if corrupt not in (None, "nan", "bitflip"):
            raise ValueError(f"unknown corruption {corrupt!r}")
        self._fault_plan[(int(rank), int(exchange))] = {
            "delay": float(delay), "corrupt": corrupt,
        }

    # -- LockstepComm surface: one collective per epoch -----------------

    def exchange_external(self, vectors: list[np.ndarray]) -> None:
        """Fill every domain's external DOF slots through the workers."""
        if len(vectors) != self.size:
            raise ValueError(f"expected {self.size} vectors, got {len(vectors)}")

        def one_exchange(rank):
            return (yield HALO)

        ni = [dom.n_internal * dom.b for dom in self.domains]
        for shared, vec, n in zip(self._halo, vectors, ni):
            shared[:n] = vec[:n]
        self._last_mismatch = max(self.run_ranks(one_exchange, self._halo))
        for shared, vec, n in zip(self._halo, vectors, ni):
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
        arrs = [np.asarray(c, dtype=np.float64) for c in contributions]
        if any(a.ndim != 1 or a.shape != arrs[0].shape for a in arrs):
            raise ValueError("each rank must contribute a 1-D vector of equal length")

        def one_allreduce(rank):
            return (yield arrs[rank])

        return self.run_ranks(one_allreduce, self._halo)[0]

    def allreduce_sum(self, contributions: list[float]) -> float:
        """Global scalar sum (a 1-element vector allreduce)."""
        return float(
            self.allreduce_sum_vec([np.array([float(c)]) for c in contributions])[0]
        )

    def merged_worker_log(self) -> CommLog:
        """The per-rank censuses, rebuilt from the workers' shared counters
        and merged to the aggregate view — in a healthy run the census
        :class:`LockstepComm` reports for the same solve."""
        merged = CommLog()
        for rank, dom in enumerate(self.domains):
            sizes = [ext.size * dom.b * 8 for ext in dom.recv_tables.values()]
            n = int(self._n_exchanges[rank])
            merged.merge(
                CommLog(
                    n_messages=n * len(sizes),
                    bytes_sent=n * sum(sizes),
                    n_allreduce=int(self._n_allreduces[rank]),
                    max_neighbor_count=len(sizes),
                    per_exchange_bytes=deque(
                        [sum(sizes)] * min(n, PER_EXCHANGE_RETENTION),
                        maxlen=PER_EXCHANGE_RETENTION,
                    ),
                    rank=rank,
                )
            )
        return merged

    log = property(merged_worker_log)
