"""The solve team (repro.kernels.team): a partner process for one solve.

What ``tests/test_kernels.py`` (``TestSplitProduct``,
``TestSolvesWithAndWithoutTheHelper``) does not: bit-identity with the
team on and off for the other families, where a team may not form, the
partner's death in a product and in a sweep, the jobs of a stopped
partner taken back, a late barrier slept through, and the split of the
schedule groups, which must never cut a selective block apart.  Runs on
one visible CPU too (CI's ``taskset -c 0`` step): the tests that need a
team then put both processes on that CPU.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro import DiagonalScaling, block_cg_solve, cg_solve, obs
from repro.experiments.workloads import block_problem
from repro.kernels import team
from repro.kernels.plans import FlatSweep, SubstitutionPlan
from repro.precond import bic, sb_bic0

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _digest(res) -> str:
    h = hashlib.sha256()
    for arr in (res.x, res.history):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.fixture
def teams_on(monkeypatch):
    """Every solve forms a team; on one visible CPU both processes share it."""
    monkeypatch.setattr(team, "TEAM_NNZ", 0)
    cpus = team._cpus()
    if len(cpus) < 2:
        monkeypatch.setattr(team, "_cpus", lambda: cpus * 2)
    if team.size() < 2:
        pytest.skip("no solve team on this platform (x86 only)")


def _solve(problem, m, blocked=False):
    with obs.observe() as tracer:
        if blocked:
            rhs = np.column_stack([problem.b, -problem.b[::-1]])
            res = block_cg_solve(problem.a, rhs, m, eps=1e-8)
        else:
            res = cg_solve(problem.a, problem.b, m, eps=1e-8)
    (span,) = tracer.find("block_cg_solve" if blocked else "cg_solve")
    return res, span.attrs


@pytest.fixture(scope="module")
def problem():
    return block_problem(0.8)


FAMILIES = {
    "bic0": lambda p: bic(p.a, fill_level=0),
    "bic1": lambda p: bic(p.a, fill_level=1),
    "diag": lambda p: DiagonalScaling(p.a),
}


@pytest.mark.parametrize("blocked", [False, True], ids=["cg", "block_cg"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_same_sha256_with_the_team_on_and_off(problem, teams_on, monkeypatch, family, blocked):
    m = FAMILIES[family](problem)
    on, attrs = _solve(problem, m, blocked)
    assert attrs["team"] == 2 and attrs["team_lost"] == ""
    monkeypatch.setattr(team, "TEAM_NNZ", np.iinfo(np.int64).max)
    off, attrs = _solve(problem, m, blocked)
    assert attrs["team"] == 1
    assert _digest(on) == _digest(off) and on.iterations == off.iterations


def test_no_team_below_the_floor(problem, monkeypatch):
    monkeypatch.setattr(team, "TEAM_NNZ", problem.a.nnz + 1)
    _, attrs = _solve(problem, DiagonalScaling(problem.a))
    assert attrs["team"] == 1 and "team_barriers" not in attrs


def test_no_team_with_one_visible_cpu():
    """A fresh interpreter that sees one CPU: ``size()`` is 1 and a
    solve far above the floor runs in one process."""
    code = textwrap.dedent(
        """
        import numpy as np
        from repro import cg_solve, obs
        from repro.experiments.workloads import block_problem
        from repro.kernels import describe, team
        team.TEAM_NNZ = 0
        p = block_problem(0.5)
        with obs.observe() as tracer:
            cg_solve(p.a, p.b, eps=1e-8)
        print(team.size(), describe()["matvec_threads"], tracer.find("cg_solve")[0].attrs["team"])
        """
    )
    cpu = min(os.sched_getaffinity(0))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out.split() == ["1", "1", "1"]


@pytest.mark.parametrize("family", ["sbbic0", "diag"], ids=["in-a-sweep", "in-a-product"])
def test_a_partner_killed_mid_solve_costs_nothing_but_the_team(problem, teams_on, family):
    """SIGKILL the partner just before a sweep (SB-BIC(0)) or a product
    (Diagonal): the caller notices at the next barrier, redoes that job
    alone from its intact input and finishes alone — same sha256, the
    loss on the span, no hang."""
    m = sb_bic0(problem.a, problem.groups) if family == "sbbic0" else DiagonalScaling(problem.a)
    want, _ = _solve(problem, m)

    class Killing:
        name, setup_seconds, plan, calls = "killing", 0.0, getattr(m, "plan", None), 0

        def apply(self, r, out=None):
            self.calls += 1
            if self.calls == 10:
                live = team._active
                end = time.monotonic() + 30
                while not live.ready():
                    assert time.monotonic() < end
                    time.sleep(0.001)
                os.kill(live._proc.pid, signal.SIGKILL)
            return m.apply(r, out=out)

    t0 = time.monotonic()
    got, attrs = _solve(problem, Killing())
    assert time.monotonic() - t0 < team.DEADLINE_S + 30
    assert attrs["team"] == 2 and attrs["team_lost"] == "died"
    assert _digest(got) == _digest(want)
    assert team._active is None


def test_the_team_holds_blas_at_one_thread_for_its_life(problem, teams_on):
    """With OpenBLAS at two threads, every ``apply`` of a teamed solve
    sees one (a pool's threads would compete with the partner for its
    CPU), and the solve gives the two back when its team closes."""
    from repro.utils.workers import _openblas_thread_controls

    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread controls in this process")
    m = bic(problem.a, fill_level=0)

    class Recording:
        name, setup_seconds, plan, seen = "recording", 0.0, m.plan, []

        def apply(self, r, out=None):
            self.seen.append([get() for get, _ in controls])
            return m.apply(r, out=out)

    found = [get() for get, _ in controls]
    try:
        for _, set_threads in controls:
            set_threads(2)
        mine = [get() for get, _ in controls]
        rec = Recording()
        _, attrs = _solve(problem, rec)
        after = [get() for get, _ in controls]
    finally:
        for (_, set_threads), n in zip(controls, found):
            set_threads(n)
    assert mine == [2] * len(controls)
    assert attrs["team"] == 2 and rec.seen
    assert all(counts == [1] * len(controls) for counts in rec.seen)
    assert after == mine


def _serving(live):
    end = time.monotonic() + 30
    while not live.ready():
        assert time.monotonic() < end, "the partner never started serving"
        time.sleep(0.001)
    return live


@pytest.mark.parametrize("family", ["sbbic0", "diag"], ids=["sweeps", "products"])
def test_jobs_a_stopped_partner_never_started_are_done_by_the_caller(problem, teams_on, family):
    """SIGSTOP the partner between two jobs (as when the host takes its
    CPU away) and SIGCONT it twenty applications later: the caller takes
    back every job posted meanwhile and does it itself, so nothing waits
    for the deadline — same sha256, the partner not lost."""
    m = sb_bic0(problem.a, problem.groups) if family == "sbbic0" else DiagonalScaling(problem.a)
    want, _ = _solve(problem, m)

    class Stopping:
        name, setup_seconds, plan, calls = "stopping", 0.0, getattr(m, "plan", None), 0

        def apply(self, r, out=None):
            self.calls += 1
            if self.calls in (10, 30):
                live = _serving(team._active)
                os.kill(live._proc.pid, signal.SIGSTOP if self.calls == 10 else signal.SIGCONT)
            return m.apply(r, out=out)

    got, attrs = _solve(problem, Stopping())
    assert attrs["team"] == 2 and attrs["team_lost"] == ""
    # 20 products, and 20 sweeps for SB-BIC(0)
    assert attrs["team_taken_back"] >= (40 if family == "sbbic0" else 20)
    assert _digest(got) == _digest(want)


def test_a_barrier_whose_other_side_is_late_is_slept_through(problem, teams_on):
    """The other side reaches the barrier 50 ms late (descheduled in the
    middle of a job): the caller spins ``NAP_AFTER_S`` and then sleeps
    until it is posted, so the wait costs it a small part of 50 ms of
    CPU time."""
    import threading

    with team.team_for(problem.a) as t:
        live = _serving(t)
        c = live._ctl
        value = c[team._PARR] + 1

        def arrive_late():
            time.sleep(0.05)
            c[team._PARR] = value
            if c[team._CNAP]:
                live._wake[0].release()

        late = threading.Thread(target=arrive_late)
        late.start()
        cpu0 = time.thread_time()
        assert live._wait(team._PARR, value)
        cpu = time.thread_time() - cpu0
        late.join()
    assert live.naps >= 1 and live.lost is None
    assert cpu < 0.025


def _plan(sizes, group_sizes, lower=()):
    """A one-direction plan over blocks of *sizes* in groups of
    *group_sizes* blocks, ``-L`` holding the rows in *lower* (one entry
    each, on column 0)."""
    starts = np.concatenate(([0], np.cumsum(sizes)))
    n = int(starts[-1])
    dinv_indptr = np.concatenate(([0], np.cumsum(np.repeat(sizes, sizes))))
    dinv_indices = np.concatenate([np.tile(np.arange(lo, lo + s), s) for lo, s in zip(starts, sizes)])
    row_len = np.isin(np.arange(n), lower).astype(np.int64)
    lptr = np.concatenate(([0], np.cumsum(row_len)))
    group_ptr = starts[np.concatenate(([0], np.cumsum(group_sizes)))]
    empty = FlatSweep(np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
    return SubstitutionPlan(
        group_ptr, dinv_indptr, dinv_indices, np.ones(dinv_indices.size),
        FlatSweep(lptr, np.zeros(lptr[-1], dtype=np.int64)), empty,
    )


def test_a_selective_block_across_the_midpoint_is_never_cut():
    """One group of blocks 3, 3, 8, 3: the entries' midpoint falls
    inside the 8-row selective block, so the cut goes to its start or
    its end — never between its rows."""
    plan = _plan([3, 3, 8, 3], [1, 3], lower=[3])
    (lo, mid, hi), = plan.halves[0][1:]
    assert (lo, hi) == (3, 17)
    assert mid in (6, 14)
    assert plan.halves[0][0] in ((0, 0, 3), (0, 3, 3))


def test_every_cut_of_a_real_plan_is_a_block_start(problem):
    """SB-BIC(0) on the block model: selective blocks larger than 3
    rows exist, and every group's cut in both directions is the first
    row of a ``Dinv`` block (or the group's end)."""
    m = sb_bic0(problem.a, problem.groups)
    plan = m.plan
    assert m.sizes.max() > 3
    first = plan.dinv_indices[plan.dinv_indptr[:-1]]
    starts = set(np.flatnonzero(first == np.arange(plan.ndof)).tolist()) | {plan.ndof}
    for halves in plan.halves:
        for lo, mid, hi in halves:
            assert lo <= mid <= hi and mid in starts


def test_a_finished_solve_keeps_nothing_of_its_team_alive(problem, teams_on, monkeypatch):
    """The partner's set-up closure holds the team: closing must break
    that cycle, or every solve's A, factor and shared mapping live on
    until a cyclic collection (a cold solve loop grew ~20 MB a round)."""
    import gc
    import weakref

    made = []
    real = team.Team.__init__

    def tracked(self, *args):
        real(self, *args)
        made.append(weakref.ref(self))

    monkeypatch.setattr(team.Team, "__init__", tracked)
    gc.disable()
    try:
        _, attrs = _solve(problem, sb_bic0(problem.a, problem.groups))
        assert attrs["team"] == 2 and len(made) == 1
        assert made[0]() is None
    finally:
        gc.enable()
