"""Distributed parallel CG: one SPMD body per rank.

Every rank executes the textbook preconditioned CG on its own domain: a
boundary exchange before every matrix-vector product, per-rank partial
dot products combined by allreduce, and a *localized* preconditioner
applied to internal DOFs with no communication — exactly the GeoFEM
solver of paper section 2.2.  The rank-local iteration is a generator
(:func:`rank_cg`) that yields at each collective.  Both transports speak
one command contract: ``start(setup)`` builds every rank's factor and
keeps it with the rank — in this process on the lockstep emulation, in
the rank's resident worker on the process transport — and
``run(fn, *args)`` runs a command on every rank, advancing rank
programs through their collectives.  In exact arithmetic the iterates
coincide with a sequential CG preconditioned by
:class:`~repro.precond.localized.LocalizedPreconditioner`; the tests
assert that correspondence.

Resilience: the solver validates its right-hand side, tags every
non-converged exit with a :class:`~repro.resilience.taxonomy.FailureReason`,
and (by default) runs a cheap owner/ghost agreement probe after each halo
exchange, so an injected or real communication fault surfaces as
``COMM_FAULT`` within one iteration instead of a silently wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.obs import metric_inc, span as obs_span
from repro.parallel.comm import HALO, CommCensus, LockstepComm
from repro.parallel.partition import LocalDomain, build_domains
from repro.parallel.transport.process_backend import ProcessTransport
from repro.precond.base import Preconditioner
from repro.resilience.taxonomy import (
    CommTimeout,
    FailureReason,
    RankFailure,
    SolveReport,
)
from repro.solvers.cg import (
    CGOutcome,
    CGResult,
    _as_matvec,
    cg_program,
    check_finite_vector,
    record_solve_metrics,
)
from repro.sparse.patterns import position_matrix, positions_from_data
from repro.utils.timing import Timer
from repro.utils.validate import check_square_csr

LocalPrecondFactory = Callable[[sp.csr_matrix, np.ndarray], Preconditioner]


class _CommFaultDetected(Exception):
    """Internal: raised by a rank whose halo probe trips.  ``args`` is the
    constructor argument, so the exception survives the pickle from a
    rank worker to the driver."""

    def __init__(self, mismatch: float) -> None:
        super().__init__(mismatch)
        self.mismatch = mismatch


def _rows_dof(dom: LocalDomain) -> np.ndarray:
    """Global DOF ids of a domain's internal rows."""
    return (dom.internal_nodes[:, None] * dom.b + np.arange(dom.b)).reshape(-1)


def _internal_block(dom: LocalDomain) -> sp.csr_matrix:
    """A domain's rows restricted to its own DOFs: external couplings
    dropped, the localized preconditioning of paper section 2.2."""
    return dom.a_local[:, : dom.n_internal * dom.b].tocsr()


def _localized_setup(dom: LocalDomain, factory: LocalPrecondFactory):
    """One rank's set-up: its internal block and the factory's
    preconditioner on it.  No communication."""
    internal = _internal_block(dom)
    return internal, factory(internal, dom.internal_nodes)


def _localized_refactor(dom, internal, m, factory) -> Preconditioner:
    """Bring one rank's preconditioner to the values now in ``dom.a_local``:
    numeric-only when it can refactor, else the factory again.  The
    internal block's entries are the row entries left of the first
    external column (``a_local`` keeps its rows' columns sorted)."""
    internal.data[:] = dom.a_local.data[dom.a_local.indices < dom.n_internal * dom.b]
    if hasattr(m, "refactor"):
        m.refactor(internal)
        return m
    return factory(internal, dom.internal_nodes)


@dataclass(frozen=True)
class RankHandle:
    """The driver's view of a localized preconditioner that lives with
    its rank: what :class:`CGResult` reads of a factor."""

    name: str
    setup_seconds: float
    stats: dict

    @classmethod
    def of(cls, m: Preconditioner) -> "RankHandle":
        stats = m.factorization_stats() if hasattr(m, "factorization_stats") else {}
        return cls(getattr(m, "name", type(m).__name__), m.setup_seconds, stats)

    def factorization_stats(self) -> dict:
        return dict(self.stats)


# -- commands every rank runs: fn(rank, state, *args) ---------------------


def _worker_refactor(rank: int, state, values: list[np.ndarray]) -> RankHandle:
    state.dom.a_local.data[:] = values[rank]
    state.precond = _localized_refactor(
        state.dom, state.internal, state.precond, state.factory
    )
    return RankHandle.of(state.precond)


def _worker_cg(rank: int, state, *args):
    return rank_cg(rank, state.dom, state.precond, *args)


@dataclass
class DistributedSystem:
    """A partitioned SPD system ready for :func:`parallel_cg`.

    The per-domain preconditioners and the blocks they factor live with
    their ranks, in the communicator's rank state; ``preconds`` holds a
    :class:`RankHandle` per rank."""

    domains: list[LocalDomain]
    comm: LockstepComm | ProcessTransport
    preconds: list[RankHandle]
    b_parts: list[np.ndarray]  # internal-DOF right-hand sides
    node_domain: np.ndarray
    ndof: int
    b: int = 3
    _a_pattern: tuple[np.ndarray, np.ndarray] | None = None
    _a_maps: list[np.ndarray] | None = None
    _recovery: dict | None = None

    @classmethod
    def from_global(
        cls,
        a,
        b_vec: np.ndarray,
        node_domain: np.ndarray,
        precond_factory: LocalPrecondFactory,
        b: int = 3,
        *,
        transport: str = "lockstep",
        transport_opts: dict | None = None,
    ) -> "DistributedSystem":
        """Partition a global system and build per-domain preconditioners.

        The preconditioner factory receives each domain's *internal*
        sub-matrix (external couplings dropped — the localized
        preconditioning of section 2.2) plus the global ids of the
        domain's nodes, once per rank, in that rank's set-up.  On the
        process transport each rank worker calls it for its own rank, at
        the same time as its peers; an exception or warning it raises
        there reaches this call.

        ``transport`` is the communication fabric: ``"lockstep"`` (the
        in-process emulation) or ``"process"``
        (:class:`~repro.parallel.transport.ProcessTransport`, which
        ``transport_opts`` configure: ``budget`` / ``trace_dir``).  The
        process transport owns OS resources — call :meth:`close` (or use
        the system as a context manager) when done.
        """
        if transport not in ("lockstep", "process"):
            raise ValueError(
                f"unknown transport {transport!r}; choose 'lockstep' or 'process'"
            )
        a = check_square_csr(a)
        domains = build_domains(a, node_domain, b=b)
        if transport == "process":
            comm = ProcessTransport(domains, **(transport_opts or {}))
        else:
            comm = LockstepComm(domains)
        b_vec = np.asarray(b_vec, dtype=np.float64)

        def setup(rank, state):  # a process-transport worker inherits it by fork
            state.dom, state.factory = domains[rank], precond_factory
            state.internal, state.precond = _localized_setup(state.dom, precond_factory)
            return RankHandle.of(state.precond)

        try:
            preconds = comm.start(setup)
        except BaseException:
            comm.close()
            raise
        return cls(
            domains=domains,
            comm=comm,
            preconds=preconds,
            b_parts=[b_vec[_rows_dof(dom)] for dom in domains],
            node_domain=np.asarray(node_domain, dtype=np.int64),
            ndof=int(b_vec.size),
            b=b,
            _a_pattern=(a.indptr, a.indices),
        )

    def refactor(
        self, a, b_vec: np.ndarray | None = None
    ) -> "DistributedSystem":
        """Values-only update: new global values, same partition/pattern.

        Outer-loop drivers (ALM penalty updates, time stepping) call this
        instead of :meth:`from_global`: the partitioning, communication
        tables and each domain preconditioner's symbolic setup are
        reused.  The per-domain value maps are computed once, lazily, by
        pushing a position matrix through the same :func:`build_domains`
        pipeline; afterwards every refactorization is a fancy-index
        gather per domain plus a numeric-only preconditioner refactor
        (full factory rebuild only for preconditioners that do not
        expose ``refactor``), run by every rank on the factor it kept —
        side by side in the rank workers on the process transport.
        """
        a = check_square_csr(a)
        indptr, indices = self._a_pattern
        same = a.indptr is indptr and a.indices is indices
        if not same and not (
            np.array_equal(a.indptr, indptr) and np.array_equal(a.indices, indices)
        ):
            raise ValueError(
                "matrix sparsity pattern differs from the partitioned system; "
                "build a new DistributedSystem with from_global instead"
            )
        if self._a_maps is None:
            # gather maps global a.data -> each domain's a_local.data
            pos_domains = build_domains(position_matrix(a), self.node_domain, b=self.b)
            self._a_maps = [
                positions_from_data(pdom.a_local.data, dom.a_local.nnz)
                for pdom, dom in zip(pos_domains, self.domains)
            ]
        with obs_span("system_refactor", ranks=len(self.domains)):
            alloc = self.comm.scratch()
            values = []
            for dom, a_map in zip(self.domains, self._a_maps):
                dom.a_local.data[:] = a.data[a_map]
                values.append(alloc(dom.a_local.nnz))
                values[-1][:] = dom.a_local.data
            self.preconds = self.comm.run(_worker_refactor, values)
        if b_vec is not None:
            b_vec = np.asarray(b_vec, dtype=np.float64)
            self.b_parts = [b_vec[_rows_dof(dom)] for dom in self.domains]
        return self

    # -- local-failure-local-recovery (DESIGN.md section 10) -----------

    @property
    def can_recover(self) -> bool:
        return self._recovery is not None

    def enable_recovery(self, directory=None) -> "DistributedSystem":
        """Capture the durable per-rank data a replacement process needs.

        Local-failure-local-recovery: when a rank dies, only *its* state
        is rebuilt — from its own partitioner output / assembly data
        (the ``domain.<rank>.npz`` local data files of
        :mod:`repro.io.distio` when *directory* is given, an equivalent
        in-memory copy otherwise) and its slice of the right-hand side.
        The surviving ranks are untouched; the in-flight Krylov state is
        the CG checkpoint's job
        (:class:`~repro.resilience.checkpoint.CGCheckpointStore`).
        """
        if directory is not None:
            from repro.io.distio import write_local_data

            write_local_data(self.domains, directory)
            domains_copy = None
        else:
            domains_copy = [_clone_domain(dom) for dom in self.domains]
        self._recovery = {
            "directory": directory,
            "domains": domains_copy,
            "b_parts": [bp.copy() for bp in self.b_parts],
        }
        return self

    def recover_rank(self, rank: int, *, report: SolveReport | None = None) -> None:
        """Rebuild a dead rank's domain, preconditioner and RHS slice.

        The replacement re-reads the rank's local data file (matrix rows
        + communication tables) and the communicator's ``revive`` runs
        the rank's set-up again on it — on the process transport in a
        replacement worker forked for this rank alone.  The symbolic
        phase is deterministic, so the rebuilt factor is the lost one bit
        for bit.
        """
        if self._recovery is None:
            raise RuntimeError(
                "recover_rank requires enable_recovery() before the solve — "
                "without durable local data a dead rank cannot be rebuilt"
            )
        store = self._recovery
        if store["directory"] is not None:
            from repro.io.distio import read_local_domain

            dom = read_local_domain(store["directory"], rank)
        else:
            dom = _clone_domain(store["domains"][rank])
        self.domains[rank] = dom  # list shared with the communicator
        self.b_parts[rank] = store["b_parts"][rank].copy()
        self.preconds[rank] = self.comm.revive(rank)
        if report is not None:
            report.record(
                "retry",
                "parallel_cg",
                FailureReason.RANK_FAILURE,
                detail=f"rank {rank} rebuilt from durable local data; set-up re-run",
                rank=rank,
            )

    def gather_global(self, x_parts: list[np.ndarray]) -> np.ndarray:
        """Assemble the global solution from internal parts."""
        out = np.empty(self.ndof)
        for dom, xp in zip(self.domains, x_parts):
            out[_rows_dof(dom)] = xp
        return out

    @property
    def comm_log(self) -> CommCensus:
        return self.comm.log

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Tell the transport it will not be used again (the process
        transport stops its rank workers).

        A no-op for the lockstep emulation; idempotent everywhere, so the
        context-manager form is safe regardless of transport."""
        self.comm.close()

    def __enter__(self) -> "DistributedSystem":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _clone_domain(dom: LocalDomain) -> LocalDomain:
    """Deep copy with fresh buffers — the recovery store's in-memory stand-in
    for re-reading the rank's local data file."""
    return LocalDomain(
        rank=dom.rank,
        internal_nodes=dom.internal_nodes.copy(),
        external_nodes=dom.external_nodes.copy(),
        a_local=dom.a_local.copy(),
        send_tables={k: v.copy() for k, v in dom.send_tables.items()},
        recv_tables={k: v.copy() for k, v in dom.recv_tables.items()},
        b=dom.b,
    )


class _KrylovState:
    """Every rank's right-hand side, ``x``/``r``/``p`` and the residual
    history, allocated through *alloc* so that a process transport can
    put them where its rank workers and the driver both see them, beside
    the halo-extended work vectors (*halo*) the transport's exchanges
    move.

    ``iters[rank]`` is the number of iterations that rank has completed:
    what the driver reports when a fault ends a solve attempt from outside."""

    def __init__(self, domains: list[LocalDomain], max_iter: int, alloc, halo) -> None:
        b = domains[0].b
        sizes = [dom.n_internal * b for dom in domains]
        self.b, self.x, self.r, self.p = ([alloc(n) for n in sizes] for _ in "bxrp")
        # internal + external slots; every exchange fills all external ones
        self.halo = halo
        self.history = alloc(max_iter + 1)
        self.iters = alloc(len(domains))


class _RankHistory:
    """The ``append``-and-index surface :func:`cg_program` writes its
    history through, over the solve's shared array: entry *n* lands in
    ``st.history[n]`` and stamps ``st.iters[rank]``, so the driver reads
    both after the rank is gone."""

    def __init__(self, st: _KrylovState, rank: int, start: int) -> None:
        self.values, self.iters, self.rank, self.n = st.history, st.iters, rank, start

    def append(self, relres: float) -> None:
        self.values[self.n] = relres
        self.iters[self.rank] = self.n
        self.n += 1

    def __getitem__(self, key):
        return self.values[key]


def rank_cg(rank, dom, m, st: _KrylovState, store, resume, cg_opts):
    """Rank *rank*'s :func:`~repro.solvers.cg.cg_program` for one solve
    attempt (from *resume*, when a rollback set it) on its domain *dom*
    and localized preconditioner *m*; *cg_opts* are the stopping rules.

    Module-level, so that a rank worker forked long before the solve
    receives it by reference.  What is distributed about it is the
    matrix-vector product: the rank copies its direction into the
    halo-extended work vector — every exchange overwrites all its
    external slots — yields :data:`~repro.parallel.comm.HALO` for the
    boundary exchange (answered with the owner/ghost mismatch) and
    multiplies its rows.  Every exchange is followed by an allreduce
    before the next one, which is what lets a transport reuse one halo
    buffer per rank."""
    halo = st.halo[rank]
    a_matvec = _as_matvec(dom.a_local)
    ni = st.x[rank].size

    def matvec(v):
        halo[:ni] = v
        mismatch = yield HALO
        if mismatch > 0.0 or not np.isfinite(mismatch):
            raise _CommFaultDetected(mismatch)
        return a_matvec(halo)

    return cg_program(
        matvec,
        m,
        st.b[rank],
        st.x[rank],
        st.r[rank],
        st.p[rank],
        _RankHistory(st, rank, 0 if resume is None else resume.iteration + 1),
        **cg_opts,
        store=store,
        rank=rank,
        resume=resume,
        # one rank speaks for the solve in the trace
        labels={"solver": "parallel_cg"} if rank == 0 else None,
    )


def parallel_cg(
    system: DistributedSystem,
    *,
    eps: float = 1e-8,
    max_iter: int = 10000,
    stagnation_window: int = 0,
    time_budget: float | None = None,
    checkpoint_interval: int = 0,
    max_rollbacks: int = 3,
    report: SolveReport | None = None,
) -> CGResult:
    """Preconditioned CG on a distributed system, one SPMD body per rank.

    The iteration is :func:`~repro.solvers.cg.cg_program`, the same body
    :func:`~repro.solvers.cg.cg_solve` runs for one rank, wrapped per
    rank by :func:`rank_cg` and run as the communicator's ``_worker_cg``
    command on the factor each rank built and kept.  On the process
    transport each rank's resident worker runs it, computing on its own
    domain and meeting its peers only at the collectives, so the ranks
    run concurrently; the lockstep emulation advances them in lockstep
    inside this process.  The reductions are rank-ordered either way, so
    the iterates, the iteration count and the message census do not
    depend on which it was.

    Every boundary exchange is followed by a comparison of owner and
    ghost values (:meth:`LockstepComm.halo_mismatch`, or the
    process transport's sender/receiver checksums) and aborts with
    ``reason=COMM_FAULT`` on any disagreement — the detection side of
    both transports' ``inject_worker_fault``.  ``stagnation_window``,
    ``time_budget`` and ``report`` behave as in
    :func:`~repro.solvers.cg.cg_solve`.

    Checkpoint/rollback (DESIGN.md section 10): when
    ``checkpoint_interval > 0`` every rank snapshots its Krylov state
    every that-many iterations
    (:class:`~repro.resilience.checkpoint.CGCheckpointStore`), and a
    detected fault ends the current solve attempt and starts the next one
    from the last snapshot every rank completed — or from the beginning,
    when none has been yet — up to ``max_rollbacks`` times:

    - a transient ``COMM_FAULT`` (corrupted halo) rolls every rank back
      and re-executes — the retried exchanges are clean, so the iterates
      rejoin the fault-free trajectory exactly;
    - a :class:`~repro.resilience.taxonomy.CommTimeout` (a real
      transport's budget exhausted while every peer stayed alive)
      likewise rolls back and re-executes; the transport has replaced
      any worker that did not come back, nothing else is rebuilt;
    - a persistent :class:`~repro.resilience.taxonomy.RankFailure` (a
      dead worker process, mid-solve or idle before it; an
      ``inject_kill`` that fired, on either transport) first rebuilds the dead rank via
      :meth:`DistributedSystem.recover_rank` — which requires
      :meth:`DistributedSystem.enable_recovery` to have been called —
      then rolls back and resumes.

    With the budget exhausted (or checkpointing off) behavior reverts to
    PR 2's fail-fast: the solve ends with the detection's reason.
    """
    comm = system.comm
    for d, bp in enumerate(system.b_parts):
        check_finite_vector(bp, f"b (domain {d})")

    def detect(reason: FailureReason, it: int, detail: str = "") -> None:
        if report is not None:
            report.record("detect", "parallel_cg", reason, iteration=it, detail=detail)

    alloc = comm.scratch()
    st = _KrylovState(system.domains, max_iter, alloc, comm.halo)
    for dst, src in zip(st.b, system.b_parts):
        dst[:] = src
    store = None
    if checkpoint_interval:
        from repro.resilience.checkpoint import CGCheckpointStore

        store = CGCheckpointStore([v.size for v in st.x], checkpoint_interval, alloc)
    cg_opts = dict(
        eps=eps,
        max_iter=max_iter,
        stagnation_window=stagnation_window,
        deadline=None if time_budget is None else time.perf_counter() + time_budget,
    )
    rollbacks = 0
    resume = None

    timer = Timer()
    with obs_span(
        "parallel_cg", ranks=len(system.domains), ndof=system.ndof, eps=eps
    ), timer, obs_span("cg_iterations"):
        while True:
            # One guard around the whole attempt: with a real transport
            # any collective can fail.  A fault may leave x/r half-updated
            # — harmless, because recovery always restores the full
            # Krylov state from the snapshot (or starts afresh).
            dead = None
            try:
                out = comm.run(_worker_cg, st, store, resume, cg_opts)[0]
            except RankFailure as fail:
                reason, dead = FailureReason.RANK_FAILURE, fail.rank
                detail = f"rank {fail.rank} unresponsive after {fail.probes} probes"
            except CommTimeout as slow:
                # peers alive, budget exhausted: no state was lost, so
                # roll back and re-execute
                reason = FailureReason.COMM_TIMEOUT
                detail = (
                    f"{slow.op} outlived its {slow.elapsed:.3g}s budget "
                    f"(rank(s) {slow.pending} alive but silent)"
                )
            except _CommFaultDetected as fault:
                reason = FailureReason.COMM_FAULT
                detail = f"owner/ghost mismatch {fault.mismatch:.3e}"
            else:
                if out.reason is not None:
                    detect(out.reason, out.iterations, out.detail)
                break
            done = int(st.iters.max())
            detect(reason, done, detail)
            if (
                store is None
                or rollbacks >= max_rollbacks
                or (dead is not None and not system.can_recover)
            ):
                out = CGOutcome(done, False, reason)
                break
            if dead is not None:
                system.recover_rank(dead, report=report)
            # the last snapshot every rank committed; none yet: the start
            resume = store.restore(st.x, st.r, st.p) if store.latest else None
            st.iters[:] = 0 if resume is None else resume.iteration
            rollbacks += 1
            metric_inc("cg.rollbacks")
            if report is not None:
                report.record(
                    "recover",
                    "parallel_cg",
                    iteration=0 if resume is None else resume.iteration,
                    detail=(
                        "restarted from the beginning (no snapshot committed yet)"
                        if resume is None
                        else f"rolled back to checkpointed iteration {resume.iteration}"
                    )
                    + f" (rollback {rollbacks}/{max_rollbacks})",
                )

    record_solve_metrics(out, timer.elapsed, solver="parallel_cg")

    return CGResult(
        x=system.gather_global(st.x),
        iterations=out.iterations,
        converged=out.converged,
        relative_residual=float(st.history[out.iterations]),
        solve_seconds=timer.elapsed,
        setup_seconds=sum(m.setup_seconds for m in system.preconds),
        history=st.history[: out.iterations + 1].copy(),
        reason=out.reason,
        rollbacks=rollbacks,
    )
