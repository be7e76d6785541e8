"""Real-process transport: parity, determinism, census, genuine failures.

Everything here runs against real forked worker processes (the
``process`` transport), checked against the lockstep emulation as the
reference.  The two headline contracts:

- **determinism gate**: a 4-domain ``parallel_cg`` produces bit-identical
  ``x``, iteration count and census on ``lockstep`` and ``process``
  transports — the fixed rank-ordered reduction makes the fabrics
  interchangeable;
- **genuine failures**: a SIGKILLed worker is a dead OS process (not a
  flag), a wedged worker really sleeps through the deadline budget, and
  recovery must reproduce the undisturbed run bit-for-bit — and the same
  fault plan on the lockstep emulation recovers the same way.
"""

import gc
import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro import kernels
from repro.fem.generators import simple_block_model
from repro.fem.model import build_contact_problem
from repro.obs import merge_rank_traces, rank_time_table
from repro.parallel import (
    DistributedSystem,
    LockstepComm,
    parallel_cg,
    partition_nodes_rcb,
)
from repro.parallel.partition import build_domains
from repro.parallel.transport import ProcessTransport, shutdown
from repro.precond import DiagonalScaling, bic
from repro.resilience import FailureReason, SolveReport


@pytest.fixture(scope="module")
def problem():
    mesh = simple_block_model(3, 3, 2, 3, 3)
    return build_contact_problem(mesh, penalty=1e4), mesh


@pytest.fixture(scope="module")
def part(problem):
    _, mesh = problem
    return partition_nodes_rcb(mesh.coords, 4)


def _factory(sub, nodes):
    return bic(sub, fill_level=0)


@pytest.fixture(scope="module")
def lockstep_ref(problem, part):
    prob, _ = problem
    system = DistributedSystem.from_global(prob.a, prob.b, part, _factory)
    res = parallel_cg(system)
    assert res.converged
    return system, res


def _diagonal(sub, nodes):
    return DiagonalScaling(sub)


def _broken_factory(sub, nodes):
    raise ValueError(f"cannot factor a block of {sub.shape[0]} rows")


def _wide_allreduce(rank, state):
    return (yield np.zeros(9))


def _process_system(problem, part, **opts):
    prob, _ = problem
    return DistributedSystem.from_global(
        prob.a, prob.b, part, _factory, transport="process",
        transport_opts=opts,
    )


# -- selection: one explicit argument -------------------------------------


class TestRegistry:
    """The transport is the ``transport=`` argument of ``from_global``:
    nothing process-wide, no environment variable."""

    def test_default_is_lockstep(self, problem, part):
        prob, _ = problem
        system = DistributedSystem.from_global(prob.a, prob.b, part, _factory)
        assert type(system.comm) is LockstepComm

    def test_lockstep_and_process_available(self, problem, part):
        prob, _ = problem
        for name, kind in (("lockstep", LockstepComm), ("process", ProcessTransport)):
            with DistributedSystem.from_global(
                prob.a, prob.b, part, _factory, transport=name
            ) as system:
                assert type(system.comm) is kind

    def test_unknown_name_rejected(self, problem, part):
        prob, _ = problem
        with pytest.raises(ValueError, match="unknown transport 'carrier-pigeon'"):
            DistributedSystem.from_global(
                prob.a, prob.b, part, _factory, transport="carrier-pigeon"
            )

    def test_mpi_is_not_a_transport(self, problem, part):
        """The replicated-driver mpi backend is gone: its name is an
        error that names both transports, not a silent lockstep run."""
        prob, _ = problem
        before = _rank_workers()
        with pytest.raises(ValueError, match="unknown transport 'mpi'") as err:
            DistributedSystem.from_global(prob.a, prob.b, part, _factory, transport="mpi")
        assert "'lockstep'" in str(err.value) and "'process'" in str(err.value)
        assert _rank_workers() == before  # nothing forked

    def test_create_transport_types(self, problem, part):
        """Constructing the process transport forks nothing; ``start``
        forks one worker per rank."""
        prob, _ = problem
        before = _rank_workers()
        proc = ProcessTransport(build_domains(prob.a, part), budget=5.0)
        try:
            assert proc.budget == 5.0
            assert proc.pids == [None] * 4 and _rank_workers() == before
        finally:
            proc.close()


# -- parity + determinism -----------------------------------------------


class TestParity:
    def test_single_exchange_matches_lockstep(self, problem, part):
        prob, _ = problem
        system = _process_system(problem, part)
        try:
            ref_comm = LockstepComm(system.domains)
            rng = np.random.default_rng(3)
            vecs_p = [
                rng.standard_normal(d.n_local * d.b) for d in system.domains
            ]
            vecs_l = [v.copy() for v in vecs_p]
            system.comm.exchange_external(vecs_p)
            ref_comm.exchange_external(vecs_l)
            for vp, vl in zip(vecs_p, vecs_l):
                assert np.array_equal(vp, vl)
            assert system.comm.halo_mismatch(vecs_p) == 0.0
        finally:
            system.close()

    def test_allreduce_matches_lockstep_bitwise(self, problem, part):
        system = _process_system(problem, part)
        try:
            ref_comm = LockstepComm(system.domains)
            rng = np.random.default_rng(11)
            contribs = [rng.standard_normal(2) for _ in system.domains]
            got = system.comm.allreduce_sum_vec([c.copy() for c in contribs])
            want = ref_comm.allreduce_sum_vec([c.copy() for c in contribs])
            assert np.array_equal(got, want)
        finally:
            system.close()

    def test_determinism_gate_4_domains(self, problem, part, lockstep_ref):
        """THE gate: bit-identical x, iterations and allreduce census."""
        sys_l, res_l = lockstep_ref
        sys_p = _process_system(problem, part)
        try:
            res_p = parallel_cg(sys_p)
            assert res_p.converged
            assert res_p.iterations == res_l.iterations
            assert np.array_equal(res_p.x, res_l.x)
            assert sys_p.comm_log == sys_l.comm_log
            assert sys_l.comm_log.n_allreduce == 2 * res_l.iterations + 1
        finally:
            sys_p.close()

    def test_setup_runs_in_the_rank_workers(self, problem, part, monkeypatch):
        """The driver builds no symbolic factorization on the process
        transport: each rank worker builds its own, and the driver keeps
        a handle per rank that reports the worker's set-up."""
        from repro.precond import icfact

        built = []
        init = icfact.ICSymbolic.__init__

        def counting_init(self, *args, **kwargs):
            built.append(os.getpid())
            init(self, *args, **kwargs)

        monkeypatch.setattr(icfact.ICSymbolic, "__init__", counting_init)
        system = _process_system(problem, part)
        try:
            assert built == []
            assert all(m.setup_seconds > 0 for m in system.preconds)
            assert all(
                m.factorization_stats()["symbolic_setups"] == 1 for m in system.preconds
            )
            assert parallel_cg(system).converged
            assert built == []
        finally:
            system.close()
            shutdown()  # workers forked under the patch are not parked for later tests

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here"
    )
    def test_four_ranks_on_one_cpu_time_share(self, problem, part, lockstep_ref):
        """Over-subscription degrades to time-sharing: the waits yield, so
        four ranks pinned to the one allowed CPU finish, bit-identically.
        A stall would end as COMM_TIMEOUT through the budget, not hang.
        The workers were parked under the wider mask: set-up re-pins them."""
        _, ref = lockstep_ref
        with _process_system(problem, part) as warm:
            parked = warm.comm.pids
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(mask)})
        try:
            system = _process_system(
                problem, part, budget=20.0
            )
            try:
                assert system.comm.pids == parked
                assert system.comm.run(_affinity) == [{min(mask)}] * 4
                res = parallel_cg(system)
            finally:
                system.close()
        finally:
            os.sched_setaffinity(0, mask)
        assert res.converged and res.iterations == ref.iterations
        assert np.array_equal(res.x, ref.x)

    def test_no_affinity_api_skips_pinning(
        self, problem, part, lockstep_ref, monkeypatch
    ):
        _, ref = lockstep_ref
        shutdown()  # workers forked without the API, not parked ones
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        system = _process_system(problem, part)
        try:
            res = parallel_cg(system)
        finally:
            system.close()
            shutdown()  # nor are they parked for later tests, which pin
        assert np.array_equal(res.x, ref.x)

    def test_strong_scaling_census(self):
        """The deterministic half of a strong-scaling study (no wall
        clock): the block model on 1, 2 and 4 rank workers.  Iterations
        grow with the rank count only as mildly as the paper's Table 1
        (localized preconditioning), and every rank's own counters show
        one exchange and two allreduces per iteration."""
        from repro import contact_aware_partition, sb_bic0
        from repro.experiments.workloads import block_problem
        from repro.precond.localized import restrict_groups

        p = block_problem(0.5, 1e6)
        groups, n_nodes = p.groups, p.mesh.n_nodes

        def factory(sub, nodes):
            return sb_bic0(sub, restrict_groups(groups, nodes, n_nodes))

        iterations = []
        for ranks in (1, 2, 4):
            part = contact_aware_partition(p.mesh.coords, groups, ranks)
            with DistributedSystem.from_global(
                p.a, p.b, part, factory, transport="process"
            ) as system:
                res = parallel_cg(system)
                assert res.converged
                n = res.iterations
                fabric = system.comm._fab
                assert fabric.n_exchanges.tolist() == [n] * ranks
                assert fabric.n_allreduces.tolist() == [2 * n + 1] * ranks
            iterations.append(n)
        assert iterations == sorted(iterations)
        assert iterations[-1] <= 1.5 * iterations[0]


@pytest.mark.parametrize("transport", ["lockstep", "process"])
def test_nine_wide_allreduce_rejected(problem, part, transport):
    """One validator: a contribution wider than the process transport's
    reduction table fails on both transports, from the driver and from a
    rank program alike, and is not counted."""
    prob, _ = problem
    with DistributedSystem.from_global(
        prob.a, prob.b, part, _factory, transport=transport
    ) as system:
        with pytest.raises(ValueError, match="at most 8 entries"):
            system.comm.allreduce_sum_vec([np.zeros(9)] * 4)
        with pytest.raises(ValueError, match="at most 8 entries"):
            system.comm.run(_wide_allreduce)
        assert system.comm.log.n_allreduce == 0


def _matvec_threads(rank, state):
    return kernels.describe()["matvec_threads"]


def _affinity(rank, state):
    return os.sched_getaffinity(0)


def test_a_rank_worker_runs_its_kernels_on_one_thread(problem, part):
    """A rank worker is forked: it shares the cores with its peers and
    forms no solve team (no partner process), whatever the process that
    forked it can."""
    with _process_system(problem, part) as system:
        assert system.comm.run(_matvec_threads) == [1] * system.comm.size


# -- genuine failures ----------------------------------------------------


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _alive(pid: int) -> bool:
    """Whether *pid* is a live process (a zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _rank_workers() -> list:
    return [
        p for p in mp.active_children() if p.name.startswith("repro-")
    ]


class TestRealFailures:
    @pytest.mark.parametrize("when", ["mid_solve", "idle"])
    def test_sigkill_detected_recovered_bit_exact(
        self, problem, part, lockstep_ref, when
    ):
        """A worker SIGKILLed inside a solve, or idle before it, is a dead
        rank: detected, replaced by one new worker for that rank alone
        (which rebuilds its factor), and the solve ends bit-exact."""
        _, ref = lockstep_ref
        system = _process_system(
            problem, part, budget=6.0
        )
        try:
            system.enable_recovery()
            before, handle = system.comm.pids, system.preconds[2]
            if when == "mid_solve":
                system.comm.inject_kill(2, at_exchange=6)
            else:
                os.kill(before[2], signal.SIGKILL)
            report = SolveReport()
            res = parallel_cg(system, checkpoint_interval=4, report=report)
            assert res.converged
            if when == "mid_solve":
                assert system.comm.kills == [{"rank": 2, "exchange": 6}]
            assert len(system.comm.revivals) == 1
            assert res.rollbacks == 1
            assert any(
                e.reason is FailureReason.RANK_FAILURE
                for e in report.detections()
            )
            assert np.array_equal(res.x, ref.x)  # bit-exact recovery
            assert system.preconds[2] is not handle  # the factor was rebuilt
            # exactly one replacement, for the dead rank; the survivors
            # kept their processes, and every worker outlives the solve
            after = system.comm.pids
            assert after[2] != before[2]
            assert after[:2] + after[3:] == before[:2] + before[3:]
            assert sorted(p.pid for p in _rank_workers()) == sorted(after)
        finally:
            system.close()
        # the set, replacement included, is parked for the next system
        assert sorted(p.pid for p in _rank_workers()) == sorted(after)
        shutdown()
        assert _rank_workers() == []

    def test_sigkill_without_recovery_store_fails_fast(self, problem, part):
        system = _process_system(
            problem, part, budget=2.0
        )
        try:
            system.comm.inject_kill(1, at_exchange=3)
            res = parallel_cg(system)  # no checkpointing, no recovery
            assert not res.converged
            assert res.reason is FailureReason.RANK_FAILURE
        finally:
            system.close()

    def test_wedged_worker_comm_timeout_rollback(
        self, problem, part, lockstep_ref
    ):
        _, ref = lockstep_ref
        budget = 1.05
        system = _process_system(problem, part, budget=budget)
        try:
            before = system.comm.pids
            system.comm.inject_worker_fault(
                1, exchange=6, delay=3 * budget
            )
            report = SolveReport()
            res = parallel_cg(system, checkpoint_interval=4, report=report)
            assert res.converged
            assert any(
                e.reason is FailureReason.COMM_TIMEOUT
                for e in report.detections()
            )
            assert res.rollbacks >= 1
            assert system.comm.timeout_count >= 1
            assert np.array_equal(res.x, ref.x)
            # no injected kill fired and no rank was recovered; the wedged
            # worker, still asleep after the grace, was SIGKILLed and
            # replaced by the transport, and only it
            assert system.comm.kills == [] and system.comm.revivals == []
            after = system.comm.pids
            assert after[1] != before[1]
            assert after[:1] + after[2:] == before[:1] + before[2:]
        finally:
            system.close()

    def test_slow_but_alive_absorbed(self, problem, part, lockstep_ref):
        """A delay inside one deadline is not a solver-visible failure."""
        _, ref = lockstep_ref
        system = _process_system(
            problem, part, budget=15.0
        )
        try:
            system.comm.inject_worker_fault(0, exchange=4, delay=0.8)
            report = SolveReport()
            res = parallel_cg(system, checkpoint_interval=4, report=report)
            assert res.converged
            assert report.detections() == []
            assert res.rollbacks == 0
            assert np.array_equal(res.x, ref.x)
        finally:
            system.close()

    @pytest.mark.parametrize("kind", ["nan", "bitflip"])
    def test_corrupted_halo_checksum_piggyback(
        self, problem, part, lockstep_ref, kind
    ):
        """The checksum rides the exchange replies: corruption in a
        worker's received ghost values must trip COMM_FAULT end-to-end
        without the driver ever peeking at owner buffers."""
        _, ref = lockstep_ref
        system = _process_system(problem, part)
        try:
            system.comm.inject_worker_fault(1, exchange=5, corrupt=kind)
            report = SolveReport()
            res = parallel_cg(system, checkpoint_interval=4, report=report)
            assert res.converged
            assert any(
                e.reason is FailureReason.COMM_FAULT
                for e in report.detections()
            )
            assert np.array_equal(res.x, ref.x)
        finally:
            system.close()


class TestOneFaultSurface:
    """The same fault plan on either transport: detected for the same
    reason, rolled back once, and recovered to the fault-free lockstep
    answer bit for bit.  A kill is a dead OS process on one transport and
    a lost halo vector on the other; a corruption hits the same ghost
    slot on both."""

    @pytest.mark.parametrize("fault", ["kill", "nan", "bitflip"])
    @pytest.mark.parametrize("transport", ["lockstep", "process"])
    def test_same_plan_same_recovery(
        self, problem, part, lockstep_ref, transport, fault
    ):
        _, ref = lockstep_ref
        prob, _ = problem
        with DistributedSystem.from_global(
            prob.a, prob.b, part, _factory, transport=transport
        ) as system:
            if fault == "kill":
                system.enable_recovery()
                system.comm.inject_kill(2, at_exchange=6)
                reason = FailureReason.RANK_FAILURE
            else:
                system.comm.inject_worker_fault(1, exchange=5, corrupt=fault)
                reason = FailureReason.COMM_FAULT
            report = SolveReport()
            res = parallel_cg(system, checkpoint_interval=4, report=report)
            assert res.converged and res.rollbacks == 1
            assert [e.reason for e in report.detections()] == [reason]
            assert np.array_equal(res.x, ref.x)
            if fault == "kill":
                assert system.comm.kills == [{"rank": 2, "exchange": 6}]
                assert system.comm.revivals == [{"rank": 2, "exchange": 7}]
            else:
                assert system.comm.kills == system.comm.revivals == []


# -- the pool: rank workers outlive their system ---------------------------


def _pids(system) -> list:
    return list(system.comm.pids)


def _run(a, b, part, factory, transport, **opts):
    """Result, census, rank pids and rank handles of one system on *a*."""
    with DistributedSystem.from_global(
        a, b, part, factory, transport=transport, transport_opts=opts
    ) as system:
        res = parallel_cg(system)
        pids = system.comm.pids if transport == "process" else None
    return res, system.comm_log, pids, system.preconds


def _solve_on(problem, part, factory, transport):
    """x, history, iterations, census and rank pids of one system."""
    prob, _ = problem
    return _run(prob.a, prob.b, part, factory, transport)[:3]


def _setups(handles) -> list[tuple[int, int]]:
    """(symbolic, numeric) set-ups each rank's factor has run."""
    return [(h.stats["symbolic_setups"], h.stats["numeric_setups"]) for h in handles]


def _assert_same(run, ref) -> None:
    """x, history, iterations and census of two runs, to the bit."""
    (res, log, *_), (want, want_log, *_) = run, ref
    assert res.iterations == want.iterations
    assert np.array_equal(res.x, want.x) and np.array_equal(res.history, want.history)
    assert log == want_log


def _symbolic_attrs(trace_dir) -> list[int]:
    """The ``symbolic`` attribute of each rank's ``rank.setup`` span."""
    attrs = []
    for path in sorted(Path(trace_dir).glob("trace.rank*.jsonl")):
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        (setup,) = [r for r in recs if r.get("name") == "rank.setup"]
        attrs.append(setup["attrs"]["symbolic"])
    return attrs


def _arrays(obj, seen: set):
    """Every numpy array reachable from *obj* through the containers and
    the attributes of the package's and scipy's objects."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif type(obj).__module__.startswith(("repro.", "scipy.")) and hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return
    for item in items:
        yield from _arrays(item, seen)


def _parked_census(rank, state):
    """What a worker holds: its state's names, how many arrays its kept
    pair reaches, how many of them lie in the arena, and whether its
    domain does (None without one)."""
    maps = [np.frombuffer(mm, np.uint8) for _, mm in state.arena._maps]

    def in_arena(arr):
        return any(np.may_share_memory(arr, m) for m in maps)

    kept = list(_arrays(state.kept, set()))
    dom = getattr(state, "dom", None)
    return (
        sorted(vars(state)),
        len(kept),
        sum(map(in_arena, kept)),
        None if dom is None else in_arena(dom.internal_nodes),
    )


class TestRankPool:
    """``close()`` parks the rank workers and their arena; the next
    system with as many ranks takes them when it can run its factory on
    them.  What it computes does not depend on which workers it got."""

    def test_consecutive_systems_fork_one_set(self, problem, part, lockstep_ref):
        _, ref = lockstep_ref
        shutdown()
        prob, _ = problem
        fill = 0

        def closure(sub, nodes):  # a closure: only ever inherited
            return bic(sub, fill_level=fill)

        for factory in (_factory, closure):
            seen = []
            for _ in range(3):
                res, log, pids = _solve_on(problem, part, factory, "process")
                assert np.array_equal(res.x, ref.x) and res.iterations == ref.iterations
                seen.append(pids)
                assert sorted(p.pid for p in _rank_workers()) == sorted(pids)  # parked
            assert seen[0] == seen[1] == seen[2]
            # a list partition is a partition
            with DistributedSystem.from_global(
                prob.a, prob.b, part.tolist(), factory, transport="process"
            ) as system:
                assert _pids(system) == seen[0]
                assert np.array_equal(parallel_cg(system).x, ref.x)

    def test_what_forks_afresh(self, problem, part):
        shutdown()
        prob, _ = problem
        captured = {"fill": 0}

        def closure(sub, nodes):
            return bic(sub, fill_level=captured["fill"])

        first = _solve_on(problem, part, closure, "process")[2]
        # a module-level function is no exception: another factory, another set
        module_level = _solve_on(problem, part, _factory, "process")[2]
        assert set(module_level).isdisjoint(first)
        first = _solve_on(problem, part, closure, "process")[2]
        assert set(first).isdisjoint(module_level)
        # another rank count
        two = partition_nodes_rcb(problem[1].coords, 2)
        assert len(_solve_on(problem, two, closure, "process")[2]) == 2
        assert len(_rank_workers()) == 2  # the 4-rank set was stopped
        again = _solve_on(problem, part, closure, "process")[2]
        assert set(again).isdisjoint(first)

        def twin(sub, nodes):  # equal code, another object
            return bic(sub, fill_level=captured["fill"])

        third = _solve_on(problem, part, twin, "process")[2]
        assert set(third).isdisjoint(again)
        assert _solve_on(problem, part, twin, "process")[2] == third
        captured["fill"] = 1  # a captured value changed
        res, _, fourth = _solve_on(problem, part, twin, "process")
        assert set(fourth).isdisjoint(third)
        # and the fresh workers did build BIC(1)
        with DistributedSystem.from_global(prob.a, prob.b, part, twin) as lock:
            assert np.array_equal(res.x, parallel_cg(lock).x)

    def test_a_main_factory_defined_or_rebound_later_runs_as_written(self):
        """A script's factory — or a notebook's — defined after a set was
        parked, or rebound under its name, runs as the caller wrote it:
        it forks a set of its own, and no worker looks it up by name in
        a ``__main__`` that predates it."""
        code = f"""
import sys
sys.path.insert(0, {SRC!r})
import numpy as np
from repro import DistributedSystem, parallel_cg, partition_nodes_rcb
from repro.fem.generators import simple_block_model
from repro.fem.model import build_contact_problem
from repro.precond import DiagonalScaling, bic
mesh = simple_block_model(3, 3, 2, 3, 3)
prob = build_contact_problem(mesh, penalty=1e4)
part = partition_nodes_rcb(mesh.coords, 2)

def solve(factory, transport):
    with DistributedSystem.from_global(
        prob.a, prob.b, part, factory, transport=transport
    ) as system:
        x = parallel_cg(system).x
        return x, system.comm.pids if transport == "process" else None

def check(factory):
    x, pids = solve(factory, "process")
    assert np.array_equal(x, solve(factory, "lockstep")[0])
    print(*pids)
    return x

def diag(sub, nodes):
    return DiagonalScaling(sub)

check(diag)  # a parked set, forked before `late` was defined

def late(sub, nodes):
    return bic(sub, fill_level=0)

x0 = check(late)

def late(sub, nodes):  # rebound under the same name
    return bic(sub, fill_level=1)

assert not np.array_equal(check(late), x0)
"""
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        diag, late0, late1 = (set(line.split()) for line in out.stdout.split("\n")[:3])
        assert diag.isdisjoint(late0) and late0.isdisjoint(late1)

    def test_close_parks_workers_that_keep_only_their_factor(self, problem, part):
        """A parked worker holds no system — no domain views, link or
        trace session — only the arena and the factory it was forked
        with, and ``kept``: its rank's factor and the node ids it was
        built for.  No kept array lies in the arena, which the next
        system rewrites.  The second system is another cut on the same
        set, so its factors were built from domains in the arena."""
        from repro.parallel.transport import process_backend

        shutdown()
        _solve_on(problem, part, _factory, "process")
        with _process_system(problem, (part + 1) % 4) as system:
            for names, n_kept, in_arena, dom_in_arena in system.comm.run(_parked_census):
                assert {"dom", "kept", "link"} <= set(names)
                assert n_kept > 0 and in_arena == 0 and dom_in_arena
        (parked,) = process_backend._parked
        for rank in range(parked.size):
            parked.workers.send(rank, _parked_census)
            kind, (names, n_kept, in_arena, dom), _ = parked.workers.receive(rank)
            assert (kind, names) == ("done", ["arena", "factory", "kept"])
            assert n_kept > 0 and in_arena == 0 and dom is None

    def test_internal_block_is_a_copy(self, problem):
        """A rank's factor never holds the arena's pages through its
        block: the column slice copies, at full width too (one domain,
        no external columns)."""
        prob, mesh = problem
        for ndomains in (1, 4):
            for dom in build_domains(prob.a, partition_nodes_rcb(mesh.coords, ndomains)):
                block = dom.internal_block()
                for mine in (block.data, block.indices, block.indptr):
                    for theirs in (dom.a_local.data, dom.a_local.indices, dom.a_local.indptr):
                        assert not np.may_share_memory(mine, theirs)

    def test_same_cut_new_penalty_refactors(self, problem, part, tmp_path):
        """λ 1e6, then 1e4 on the same cut: the reused ranks keep their
        pattern phase and refactor — one symbolic and two numeric set-ups
        each, ``rank.setup`` with ``symbolic=0`` — and compute what the
        lockstep emulation does, to the bit, census included."""
        prob, mesh = problem
        stiff = build_contact_problem(mesh, penalty=1e6)
        shutdown()
        runs = []
        for k, p in enumerate((stiff, prob)):
            run = _run(p.a, p.b, part, _factory, "process", trace_dir=tmp_path / str(k))
            _assert_same(run, _run(p.a, p.b, part, _factory, "lockstep"))
            runs.append(run)
        (res0, _, pids0, handles0), (res1, _, pids1, handles1) = runs
        assert pids0 == pids1
        assert _setups(handles0) == [(1, 1)] * 4 and _setups(handles1) == [(1, 2)] * 4
        assert _symbolic_attrs(tmp_path / "0") == [1] * 4
        assert _symbolic_attrs(tmp_path / "1") == [0] * 4
        # each handle reports its own system's set-up, not the first build's
        assert all(h1.setup_seconds != h0.setup_seconds for h0, h1 in zip(handles0, handles1))
        assert res1.setup_seconds == sum(h.setup_seconds for h in handles1)

    def test_what_calls_the_factory_on_a_reused_set(self, problem, part, tmp_path):
        """Another cut, a changed pattern on the same nodes, a factor with
        no pattern phase: the factory builds anew, on the same workers."""
        prob, _ = problem
        shutdown()
        pids = _run(prob.a, prob.b, part, _factory, "process")[2]
        # another partition: every rank has other nodes
        rotated = (part + 1) % 4
        run = _run(prob.a, prob.b, rotated, _factory, "process")
        assert run[2] == pids and _setups(run[3]) == [(1, 1)] * 4
        _assert_same(run, _run(prob.a, prob.b, rotated, _factory, "lockstep"))
        # rank 0's nodes with a coupling its block did not store: rank 0
        # builds anew, the other ranks refactor
        _run(prob.a, prob.b, part, _factory, "process")
        nodes = np.flatnonzero(part == 0)
        i, j = next(
            (3 * u, 3 * v) for u in nodes for v in nodes if prob.a[3 * u, 3 * v] == 0
        )
        e = np.zeros(prob.a.shape[0])
        e[[i, j]] = 1.0, -1.0
        coupled = (prob.a + sp.csr_matrix(np.outer(e, e))).tocsr()
        run = _run(coupled, prob.b, part, _factory, "process")
        assert run[2] == pids
        assert _setups(run[3]) == [(1, 1)] + [(1, 2)] * 3
        _assert_same(run, _run(coupled, prob.b, part, _factory, "lockstep"))
        # Diagonal scaling has no pattern phase to keep: a set forked
        # with its factory runs it for every system
        diag = [
            _run(prob.a, prob.b, part, _diagonal, "process", trace_dir=tmp_path / str(k))
            for k in range(2)
        ]
        assert diag[0][2] == diag[1][2]
        assert _symbolic_attrs(tmp_path / "0") == _symbolic_attrs(tmp_path / "1") == [1] * 4
        _assert_same(diag[1], _run(prob.a, prob.b, part, _diagonal, "lockstep"))

    def test_failed_setup_is_never_parked(self, problem, part):
        prob, _ = problem
        _solve_on(problem, part, _factory, "process")  # a parked set

        def broken(sub, nodes):
            raise ValueError("no factor")

        with pytest.raises(ValueError, match="no factor"):
            DistributedSystem.from_global(prob.a, prob.b, part, broken, transport="process")
        assert _rank_workers() == []

        # a reused set whose set-up raised goes too
        before = _solve_on(problem, part, _factory, "process")[2]
        with pytest.raises(ValueError, match="cannot factor"):
            DistributedSystem.from_global(
                prob.a, prob.b, part, _broken_factory, transport="process"
            )
        assert not set(p.pid for p in _rank_workers()) & set(before)
        assert _rank_workers() == []

    def test_at_most_one_set_is_parked(self, problem, part):
        shutdown()
        one = _process_system(problem, part)
        two = _process_system(problem, part)  # the first holds its set: a second fork
        first, second = _pids(one), _pids(two)
        assert set(first).isdisjoint(second)
        one.close()
        two.close()  # the newest set is parked, the older one stopped
        assert sorted(p.pid for p in _rank_workers()) == sorted(second)
        shutdown()
        assert _rank_workers() == []

    def test_worker_killed_while_parked_is_replaced(self, problem, part, lockstep_ref):
        """The replacement builds its rank's factor anew; its peers
        refactor the ones they kept; the answer does not change."""
        _, ref = lockstep_ref
        shutdown()
        before = _solve_on(problem, part, _factory, "process")[2]
        os.kill(before[1], signal.SIGKILL)
        prob, _ = problem
        res, log, after, handles = _run(prob.a, prob.b, part, _factory, "process")
        assert after[1] != before[1]
        assert after[:1] + after[2:] == before[:1] + before[2:]
        assert _setups(handles) == [(1, 2), (1, 1), (1, 2), (1, 2)]
        _assert_same((res, log), (ref, lockstep_ref[0].comm_log))

    def test_determinism_gate_twice_on_one_pool(self, problem, part, lockstep_ref):
        """The 4-domain gate, twice in a row on the same workers."""
        sys_l, res_l = lockstep_ref
        shutdown()
        runs = [_solve_on(problem, part, _factory, "process") for _ in range(2)]
        assert runs[0][2] == runs[1][2]
        for res_p, log_p, _ in runs:
            assert res_p.iterations == res_l.iterations
            assert np.array_equal(res_p.x, res_l.x)
            assert np.array_equal(res_p.history, res_l.history)
            assert log_p == sys_l.comm_log

    def test_block_model_reused_equals_fresh_and_lockstep(self):
        """Block 1.5 on 2 contact-aware domains with localized SB-BIC(0):
        a system on reused workers computes what a freshly forked one and
        the lockstep emulation do, to the bit, census included."""
        from repro import contact_aware_partition, sb_bic0
        from repro.experiments.workloads import block_problem
        from repro.precond.localized import restrict_groups

        p = block_problem(1.5)
        groups, n_nodes = p.groups, p.mesh.n_nodes

        def factory(sub, nodes):
            return sb_bic0(sub, restrict_groups(groups, nodes, n_nodes))

        cut = contact_aware_partition(p.mesh.coords, groups, 2)
        shutdown()
        outcomes = []
        for transport in ("lockstep", "process", "process"):
            with DistributedSystem.from_global(
                p.a, p.b, cut, factory, transport=transport
            ) as system:
                res = parallel_cg(system)
                pids = system.comm.pids if transport == "process" else None
            outcomes.append((res, system.comm_log, pids))
        (lock, lock_log, _), (fresh, fresh_log, pids0), (warm, warm_log, pids1) = outcomes
        assert pids0 == pids1  # the second system took the first one's workers
        for res, log in ((fresh, fresh_log), (warm, warm_log)):
            assert res.iterations == lock.iterations
            assert np.array_equal(res.x, lock.x)
            assert np.array_equal(res.history, lock.history)
            assert log == lock_log


# -- lifecycle + observability -------------------------------------------


class TestLifecycle:
    def test_close_idempotent_and_context_manager(self, problem, part):
        with _process_system(problem, part) as system:
            assert isinstance(system.comm, ProcessTransport)
            pids = system.comm.pids
            assert sorted(p.pid for p in _rank_workers()) == sorted(pids)
        assert sorted(p.pid for p in _rank_workers()) == sorted(pids)  # parked
        system.close()  # second close is a no-op
        assert sorted(p.pid for p in _rank_workers()) == sorted(pids)
        shutdown()
        assert _rank_workers() == []
        with pytest.raises(RuntimeError, match="closed"):
            parallel_cg(system)

    def test_no_rank_worker_outlives_the_interpreter(self):
        """A process that builds and closes process systems and exits
        normally leaves none of their workers behind: the parked set is
        stopped at exit."""
        code = f"""
import sys
sys.path.insert(0, {SRC!r})
from repro import DistributedSystem, parallel_cg, partition_nodes_rcb
from repro.fem.generators import simple_block_model
from repro.fem.model import build_contact_problem
from repro.precond import DiagonalScaling
mesh = simple_block_model(3, 3, 2, 3, 3)
prob = build_contact_problem(mesh, penalty=1e4)
part = partition_nodes_rcb(mesh.coords, 2)
factory = lambda sub, nodes: DiagonalScaling(sub)
for _ in range(2):
    with DistributedSystem.from_global(
        prob.a, prob.b, part, factory, transport="process"
    ) as system:
        assert parallel_cg(system).converged
        print(*system.comm.pids)
"""
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        first, second = (line.split() for line in out.stdout.split("\n")[:2])
        assert first == second  # the second system took the first one's workers
        for pid in map(int, first):
            assert not _alive(pid), pid

    def test_dropped_system_stops_its_workers(self, problem, part):
        """A system dropped without close() still stops its workers."""
        system = _process_system(problem, part)
        workers = _rank_workers()
        assert len(workers) == 4
        del system
        gc.collect()
        assert not any(p.is_alive() for p in workers)
        assert _rank_workers() == []

    def test_factory_error_reaches_from_global(self, problem, part):
        """A factory that raises in a rank worker fails from_global with
        that exception, and leaves no worker behind."""

        def broken(sub, nodes):
            raise ValueError(f"cannot factor a block of {sub.shape[0]} rows")

        prob, _ = problem
        with pytest.raises(ValueError, match="cannot factor"):
            DistributedSystem.from_global(
                prob.a, prob.b, part, broken, transport="process"
            )
        assert _rank_workers() == []

    def test_factory_warning_reaches_from_global(self, problem, part):
        from repro.resilience import PivotNudgeWarning

        def nudging(sub, nodes):
            warnings.warn("pivot nudged in a worker", PivotNudgeWarning)
            return _factory(sub, nodes)

        prob, _ = problem
        with pytest.warns(PivotNudgeWarning, match="nudged in a worker"):
            system = DistributedSystem.from_global(
                prob.a, prob.b, part, nudging, transport="process"
            )
        system.close()

    @pytest.mark.parametrize("transport", ["lockstep", "process"])
    def test_invalid_injection_args(self, problem, part, transport):
        prob, _ = problem
        with DistributedSystem.from_global(
            prob.a, prob.b, part, _factory, transport=transport
        ) as system:
            with pytest.raises(ValueError, match="outside"):
                system.comm.inject_kill(99, at_exchange=0)
            with pytest.raises(ValueError, match="outside"):
                system.comm.inject_worker_fault(-1, 1, corrupt="nan")
            with pytest.raises(ValueError, match="unknown corruption"):
                system.comm.inject_worker_fault(0, 1, corrupt="gamma-ray")

    def test_per_rank_traces_and_merge(self, problem, part, tmp_path):
        system = _process_system(problem, part, trace_dir=tmp_path)
        try:
            parallel_cg(system, max_iter=10)
        finally:
            system.close()
        files = sorted(tmp_path.glob("trace.rank*.jsonl"))
        assert len(files) == 4
        for r, f in enumerate(files):
            recs = [json.loads(line) for line in f.read_text().splitlines()]
            meta = [x for x in recs if x["kind"] == "meta"]
            assert len(meta) == 1 and meta[0]["rank"] == r
            spans = [x for x in recs if x["kind"] == "span"]
            assert spans and all(x["rank"] == r for x in spans)
            # the factor's own spans nest under the rank's set-up
            top = [x for x in spans if x["parent_id"] is None]
            assert {x["name"] for x in top} == {
                "halo_exchange", "rank.compute", "rank.setup", "rank.wait",
            }
            assert all(x["attrs"]["rank"] == r for x in top)
            assert sum(x["name"] == "rank.setup" for x in top) == 1
            # one wait per collective, tagged with its kind: 10 exchanges,
            # 1 + 2 * 10 allreduces — the comm/compute split of Fig. 20
            waits = [x["attrs"]["kind"] for x in top if x["name"] == "rank.wait"]
            assert waits.count("halo") == 10 and waits.count("allreduce") == 21
            n_compute = sum(x["name"] == "rank.compute" for x in top)
            assert n_compute == len(waits) + 1
        table = rank_time_table(files).splitlines()
        assert table[0].split()[:4] == ["rank", "setup", "s", "compute"]
        assert [line.split()[0] for line in table[1:]] == ["0", "1", "2", "3"]
        assert all(float(line.split()[1]) > 0 for line in table[1:])
        merged = merge_rank_traces(files, tmp_path / "merged.json")
        doc = json.loads(merged.read_text())
        events = doc["traceEvents"]
        lanes = {e["pid"] for e in events if e["ph"] == "X"}
        assert lanes == {0, 1, 2, 3}
        names = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert names == {"rank 0", "rank 1", "rank 2", "rank 3"}
