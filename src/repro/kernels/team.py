"""Two processes inside one solve: the caller and a forked partner.

The paper's hybrid model runs one SMP node's rows on all of its
processors, with one synchronisation per colour of the substitution
(Figs. 26-29).  Here a solve on an operator of at least
:data:`TEAM_NNZ` nonzeros does the same on this host's cores: it forks
one *partner* for the solve's life, which shares

- every large product ``A p`` (``A P`` for a panel): it computes the
  rows from a split row, the caller the rows before it, one barrier per
  product.  The split starts where ``indptr`` passes ``nnz / 2`` and
  follows the load (the partner reads ``p`` out of the caller's cache,
  so an even split leaves the caller waiting);
- every schedule group of the substitution sweep: it computes the rows
  from the ``Dinv`` block start nearest the group's midpoint
  (:meth:`~repro.kernels.plans.SubstitutionPlan.halves`), the caller the
  rows before it, one barrier per group and direction.

The operands it reads, ``A`` and the factor, it inherits through the
fork; the vectors the two write — ``p``, ``q``, and the sweep's ``t``
and ``y`` — live in one ``MAP_SHARED`` mapping that the solve owns.
Every row is still summed by one kernel call on the same inputs, so the
iterates are bit-identical to one process.  The dots and the scalar
recurrences stay on the caller, in the one CG loop.

A barrier is a monotone counter per process in the mapping: a process
publishes the last barrier it reached and waits for the other's counter
(``check → sched_yield``, the transport's discipline; a futex wake-up,
10-25 us here, costs more than a colour's work).  Two things keep a
late partner from costing the caller CPU time:

- a posted job is a token on a semaphore, and the partner sleeps on it
  between jobs (the caller's dots and recurrences, 40-100 us: spinning
  there would cost a core's worth of CPU time for nothing).  Waking it
  takes 20-60 us, and milliseconds when the host has taken its CPU
  away, so a caller that finds its partner absent at a barrier first
  tries to take the token back: when it can, the partner never started
  the job, and the caller does the partner's rows itself instead of
  waiting for them (:attr:`Team.taken_back`);
- a process still waiting :data:`NAP_AFTER_S` after it reached a
  barrier stops spinning and sleeps until the other posts it (or
  :data:`NAP_S` passes): the other was descheduled, and spinning through
  that costs CPU time in proportion to how busy the host is.

The publish/consume order of the barriers relies on x86-TSO store
order, so a team forms only on x86.  When the partner dies or misses
:data:`DEADLINE_S`, the caller kills it, redoes the current product or
sweep alone from its intact input and finishes the solve alone
(:attr:`Team.lost`).

A team forms only where two CPUs are visible, only in a process that
was not itself forked (rank, pool and team workers share the cores with
their peers already) and only once per process at a time.
"""

from __future__ import annotations

import contextlib
import ctypes
import mmap
import multiprocessing as mp
import os
import platform
import threading
import time

import numpy as np
from scipy.sparse import _sparsetools

from repro.kernels.plans import SubstitutionPlan
from repro.utils.workers import Workers

__all__ = ["DEADLINE_S", "NO_TEAM", "TEAM_NNZ", "Team", "sharing", "size", "team_for"]

_csr_matvec = _sparsetools.csr_matvec
_csr_matvecs = _sparsetools.csr_matvecs

TEAM_NNZ = 240_000
"""Solves on fewer nonzeros run in one process: the lowest operator size
at which every family's whole solve — fork, start, stop and reap of the
partner included (8-12 ms at 0.2 GB RSS) — broke even in
``scripts/team_break_even.py`` (2-core x86 host, median of 7 alternating
runs).  SB-BIC(0) went 0.34x at 65k nonzeros, 0.71x at 115k, 1.00-1.08x
at 237-243k and 1.29x at 837k; Diagonal scaling, thousands of products,
1.08x at 92k and 1.33-1.56x from 243k.  Serve-sized operators (at most
115k) stay below it."""

DEADLINE_S = 1.0
"""How long one process waits at a barrier before it gives the other up."""

_SPINS = 256
"""Plain checks before a waiting process starts to ``sched_yield``."""

NAP_AFTER_S = 2e-4
"""How long a process waits at a barrier spinning before it sleeps until
the other side arrives: the other side was taken off its CPU."""

NAP_S = 1e-3
"""The longest one sleep at a barrier: a wake-up lost to the race between
posting and falling asleep costs at most this, and the other side's
liveness and the deadline are checked between sleeps."""

_TSO = ("x86_64", "amd64", "i386", "i686", "x86")

# the control words: one 64-byte line per writer
# caller: the posted job; a product's split row; the job's base (the
# barrier before its first); the last barrier it reached; asleep at one
_JOB, _COLS, _ROW, _BASE = 0, 1, 2, 3
_CARR, _CNAP = 8, 9
# partner: the last barrier it reached; its wait (ns); serving; asleep at one
_PARR, _PSPIN, _READY, _PNAP = 16, 17, 18, 19
_CTL = 32  # words

_STOP, _PRODUCT, _SWEEP = 0, 1, 2

_forked = False
_active: "Team | None" = None
_FORMING = threading.Lock()
"""Held while a team lives: one team per process at a time."""


def _after_fork_in_child() -> None:
    global _forked, _active
    _forked, _active = True, None


os.register_at_fork(after_in_child=_after_fork_in_child)


def _cpus() -> list[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux: no pinning, no team
        return [0]


def _current_cpu(cpus: list[int]) -> int:
    """The CPU this thread runs on (the first of *cpus* where that is
    not known)."""
    try:
        cpu = ctypes.CDLL(None).sched_getcpu()
    except (AttributeError, OSError):
        return cpus[0]
    return cpu if cpu in cpus else cpus[0]


def size() -> int:
    """How many processes a solve above the floor would run on here and
    now: 2, or 1 (one visible CPU, a forked process, not x86, or
    another solve holds the team)."""
    ok = not _forked and _active is None and platform.machine().lower() in _TSO
    return 2 if ok and len(_cpus()) >= 2 else 1


def sharing(plan) -> "Team | None":
    """The running solve's team if it shares the sweeps of *plan* with
    this thread."""
    team = _active
    if team is not None and team.plan is plan and team.ready():
        return team
    return None


@contextlib.contextmanager
def team_for(a, plan=None, cols: int = 0):
    """The team of one solve on the float64 CSR *a* — sharing the sweeps
    of *plan* too, for vectors (*cols* 0) or panels of up to *cols*
    columns — or None where one process runs it.  The partner is gone
    when the block exits, however it exits."""
    if a.nnz < TEAM_NNZ or size() < 2 or not _FORMING.acquire(blocking=False):
        yield None
        return
    if not isinstance(plan, SubstitutionPlan):  # a preconditioner without one
        plan = None
    try:
        try:
            team = Team(a, plan, cols)
        except OSError:  # no fork here (process or memory limits): one process
            team = None
        if team is None:
            yield None
            return
        try:
            yield team
        except BaseException:
            team.close(kill=True)
            raise
        team.close()
    finally:
        _FORMING.release()


class _Side:
    """The shared views of the jobs on vectors (*cols* 0) or on
    ``cols``-column panels, and the kernel calls of both halves of ``A
    p`` and of every sweep step (``steps[0]`` the caller's, ``steps[1]``
    the partner's): a caller whose partner never started a job runs the
    partner's half too."""

    def __init__(self, team: "Team", cols: int) -> None:
        a, plan = team.a, team.plan
        m, n = a.shape

        def view(i: int, rows: int) -> np.ndarray:  # shared buffer i as rows x cols
            return team.bufs[i][: rows * max(cols, 1)].reshape((rows, cols) if cols else rows)

        self.p, self.q = view(0, n), view(1, m)
        self.kernel = _csr_matvec if cols == 0 else _csr_matvecs
        self.a = a
        self.lead = (n, cols) if cols else (n,)
        self.steps = ([], [])
        if plan is None:
            return
        nd = plan.ndof
        self.t, self.y = t, y = view(2, nd), view(3, nd)
        lead = (nd, cols) if cols else (nd,)
        for d, (sweep, halves) in enumerate(zip((plan.fwd, plan.bwd), team.halves)):
            for lo, mid, hi in halves:
                for steps, (lo_, hi_) in zip(self.steps, ((lo, mid), (mid, hi))):
                    steps.append(self._step(d, sweep, plan, lead, lo_, hi_))

    def _step(self, d, sweep, plan, lead, lo: int, hi: int) -> tuple:
        """Rows ``lo:hi`` of one sweep step: the vector they zero first
        and their two kernel calls (all None when there are no rows)."""
        if lo == hi:
            return None, None, None
        t, y = self.t, self.y
        lptr = sweep.indptr[lo : hi + 1]
        lcall = None
        if lptr[-1] > lptr[0]:
            lcall = (hi - lo, *lead, lptr, sweep.indices, sweep.data, y, t[lo:hi])
        dcall = (
            hi - lo, *lead, plan.dinv_indptr[lo : hi + 1],
            plan.dinv_indices, plan.dinv_data, t, y[lo:hi],
        )
        # forward, y_g = Dinv_g t_g accumulates from zero; backward, t_g
        return (y[lo:hi] if d == 0 else t[lo:hi]), lcall, dcall

    def run(self, step: tuple) -> None:
        """One half of one sweep step."""
        zero, lcall, dcall = step
        if zero is not None:
            zero.fill(0.0)
            if lcall is not None:
                self.kernel(*lcall)
            self.kernel(*dcall)

    def product(self, lo: int, hi: int) -> None:
        """Rows ``lo:hi`` of ``q = A p``, from zero."""
        rows = self.q[lo:hi]
        rows.fill(0.0)
        self.kernel(hi - lo, *self.lead, self.a.indptr[lo : hi + 1], self.a.indices, self.a.data, self.p, rows)


class Team:
    """The caller's side of one solve's team (and, copied by the fork,
    the partner's).  Use :func:`team_for`."""

    def __init__(self, a, plan, cols: int) -> None:
        global _active
        t0 = time.perf_counter()
        self.a, self.plan, self.cols = a, plan, cols
        m, n = a.shape
        width, nd = max(cols, 1), (plan.ndof if plan is not None else 0)
        sizes = [_CTL * 8] + [k * width * 8 for k in (n, m, nd, nd)]
        offsets = np.cumsum([0] + [-(-s // 64) * 64 for s in sizes])
        self._map = mmap.mmap(-1, int(offsets[-1]))
        self._ctl = memoryview(self._map)[: _CTL * 8].cast("q")
        self.bufs = [
            np.frombuffer(self._map, np.float64, s // 8, int(o))
            for s, o in zip(sizes[1:], offsets[1:])
        ]
        ctx = mp.get_context("fork")
        # a posted job's token, and each side's wake-up from a barrier nap
        self._jobs, self._wake = ctx.Semaphore(0), (ctx.Semaphore(0), ctx.Semaphore(0))
        # the product's split row starts at the nnz midpoint and follows
        # the load: the partner reads p from the caller's cache
        self.k = int(a.indptr.searchsorted(a.indptr[m] // 2))
        self._k_step, self._k_bounds = max(1, m // 256), (m // 8, m - m // 8)
        self.halves = plan.halves if plan is not None else None
        self._sides: dict[int, _Side] = {}
        self._cols_of: dict[int, int] = {}  # id of a direction view -> its cols
        self._phase = 0
        self.barriers, self.spin_s, self.lost = 0, 0.0, None
        self.taken_back = self.naps = 0
        self.partner_spin_s = self.stop_s = 0.0
        self.caller, self.thread = True, threading.get_ident()

        cpus = _cpus()
        self._mask = set(cpus)
        mine = _current_cpu(cpus)  # pinning where it runs moves nothing
        theirs = next((c for c in cpus if c != mine), mine)

        def serve(i, state):  # the partner's whole life
            self.caller = False
            self._sides = {}
            os.sched_setaffinity(0, {theirs})
            self.serve()

        # the caller does not wait for the partner: jobs run here alone
        # until it serves
        self._workers = Workers(1, serve, name="repro-team")
        self._workers.fork([0])
        self._proc = self._workers.process(0)
        os.sched_setaffinity(0, {mine})
        _active = self
        self.start_s = time.perf_counter() - t0

    def _side(self, cols: int) -> _Side:
        side = self._sides.get(cols)
        if side is None:
            side = self._sides[cols] = _Side(self, cols)
            self._cols_of[id(side.p)] = cols
        return side

    # -- the caller's jobs --------------------------------------------

    def ready(self) -> bool:
        """Whether jobs are shared now: the partner serves, and this is
        the thread whose solve the team runs."""
        return (
            self.lost is None
            and self._ctl[_READY] == 1
            and self.thread == threading.get_ident()
        )

    def direction(self, cols: int = 0) -> np.ndarray:
        """The shared ``p``: a vector (*cols* 0) or an ``(n, cols)``
        panel, the same object on every call.  Its products are shared."""
        return self._side(cols).p

    def product(self, v: np.ndarray) -> np.ndarray:
        """``A v`` for *v* a :meth:`direction`, split with the partner
        once it serves: the shared ``q``, valid until the next product."""
        cols = self._cols_of[id(v)]
        side = self._sides[cols]
        m = self.a.shape[0]
        if not self.ready():  # every row here
            side.product(0, m)
            return side.q
        k, c = self.k, self._ctl
        c[_ROW] = k
        self._post(_PRODUCT, cols)
        side.product(0, k)
        self._phase += 1
        self.barriers += 1
        if c[_PARR] >= self._phase:  # the partner was done first: give it more
            self.k = max(k - self._k_step, self._k_bounds[0])
        elif self._take_back():  # the partner never started: its rows here
            side.product(k, m)
        elif self._wait(_PARR, self._phase):
            self.k = min(k + self._k_step, self._k_bounds[1])
        else:  # the partner is gone: every row here, from the intact p
            side.product(0, m)
        return side.q

    def sweep(self, r: np.ndarray, perm: np.ndarray) -> np.ndarray | None:
        """Sweep the plan on ``r[perm]`` (a vector or an ``(ndof, s)``
        panel) with the partner: the shared ``y``, valid until the next
        sweep; None when *s* is over the team's capacity or the partner
        was lost on the way (*r* is intact: sweep it alone)."""
        cols = 0 if r.ndim == 1 else r.shape[1]
        if cols > max(self.cols, 1):
            return None
        side = self._side(cols)
        self._post(_SWEEP, cols)
        # the partner wakes while t is taken; "t is ready" is a barrier
        r.take(perm, axis=0, out=side.t, mode="clip")
        self._phase += 1
        self._arrive(self._phase)
        return side.y if self._sweep(side) else None

    def _post(self, job: int, cols: int) -> None:
        c = self._ctl
        c[_JOB], c[_COLS], c[_BASE] = job, cols, self._phase
        self._jobs.release()

    def _take_back(self) -> bool:
        """Take the posted job's token back if the partner has not taken
        it: the partner then never runs the job, and the caller does its
        rows.  A partner found dead then is given up."""
        if not self._jobs.acquire(False):
            return False
        self.taken_back += 1
        if self._proc.exitcode is not None:
            self._lose("died")
        return True

    # -- both sides -----------------------------------------------------

    def _sweep(self, side: _Side) -> bool:
        """This side's rows of every sweep step, one barrier after each
        (after the last, only the caller waits); the caller runs the
        partner's rows too from the first step the partner has not
        started."""
        c, phase, run = self._ctl, self._phase, side.run
        steps = side.steps[0 if self.caller else 1]
        theirs = _PARR if self.caller else _CARR
        started = not self.caller  # whether the other side runs this sweep
        last = len(steps)
        for j, step in enumerate(steps, 1):
            run(step)
            phase += 1
            self._arrive(phase)
            if c[theirs] >= phase or (j == last and not self.caller):
                continue
            if not started:
                if self._take_back():  # the rest of the sweep here
                    run(side.steps[1][j - 1])
                    for mine, its in zip(steps[j:], side.steps[1][j:]):
                        run(mine)
                        run(its)
                    break
                started = True
            if not self._wait(theirs, phase):
                return False
        self._phase = phase
        self.barriers += last
        return True

    def _arrive(self, phase: int) -> None:
        """Publish that this side reached barrier *phase*, and wake the
        other side if it sleeps at a barrier."""
        c = self._ctl
        if self.caller:
            c[_CARR] = phase
            if c[_PNAP]:
                self._wake[1].release()
        else:
            c[_PARR] = phase
            if c[_CNAP]:
                self._wake[0].release()

    def _wait(self, word: int, value: int) -> bool:
        """Spin until control word *word* reaches *value*, sleeping
        after :data:`NAP_AFTER_S`; False when the other side is gone or
        missed :data:`DEADLINE_S` (a caller then gives its partner up)."""
        c = self._ctl
        t0 = time.perf_counter()
        for _ in range(_SPINS):
            if c[word] >= value:
                self.spin_s += time.perf_counter() - t0
                return True
        nap, end = t0 + NAP_AFTER_S, t0 + DEADLINE_S
        while c[word] < value:
            now = time.perf_counter()
            if now < nap:
                os.sched_yield()
                continue
            why = None if self._other_alive() else "died"
            if why is None and now > end:
                why = "stalled"
            if why is not None:
                self.spin_s += now - t0
                if self.caller:
                    self._lose(why)
                return False
            self._nap(word, value)
        self.spin_s += time.perf_counter() - t0
        return True

    def _nap(self, word: int, value: int) -> None:
        """Sleep until the other side arrives (it posts this side's wake
        semaphore when it sees the flag) or :data:`NAP_S` passes."""
        c = self._ctl
        flag, wake = (_CNAP, self._wake[0]) if self.caller else (_PNAP, self._wake[1])
        c[flag] = 1
        if c[word] < value:
            wake.acquire(True, NAP_S)
        c[flag] = 0
        self.naps += 1

    def _other_alive(self) -> bool:
        if self.caller:
            return self._proc.exitcode is None
        return os.getppid() == self._owner

    def _lose(self, why: str) -> None:
        """Give the partner up: once this returns it writes nothing more."""
        self.lost = why
        if self._proc.exitcode is None:
            self._proc.kill()
            self._proc.join()
        self._workers.close()

    # -- the partner ----------------------------------------------------

    def serve(self) -> None:
        """The partner's loop: one posted job after another until the
        caller posts the stop; it leaves the process then, and when the
        caller is gone or stalled past the deadline (the caller redoes
        the job)."""
        c, jobs = self._ctl, self._jobs
        self._owner = os.getppid()
        c[_READY] = 1
        while True:
            # between jobs the caller runs the CG recurrences (40-100 us):
            # sleep through them, do not spin
            while not jobs.acquire(True, 0.1):
                if not self._other_alive():
                    os._exit(0)
            job, cols, base = c[_JOB], c[_COLS], c[_BASE]
            self._phase = base + 1
            if job == _STOP:
                c[_PSPIN] = int(self.spin_s * 1e9)
                os._exit(0)  # nothing to tear down: the caller reaps it
            side = self._side(cols)
            if job == _PRODUCT:
                side.product(c[_ROW], self.a.shape[0])
                self._arrive(self._phase)
            elif not (self._wait(_CARR, self._phase) and self._sweep(side)):
                os._exit(0)

    # -- the end --------------------------------------------------------

    def close(self, kill: bool = False) -> None:
        """Stop and reap the partner (at once when *kill*: the caller is
        leaving on an exception, possibly mid-job) and give the caller
        its CPUs back."""
        global _active
        t0 = time.perf_counter()
        if self.lost is None:
            if kill or not self._ctl[_READY]:  # mid-job, or still starting
                self._lose("")
            else:
                self._post(_STOP, 0)
                self._proc.join(DEADLINE_S)
                if self._proc.exitcode is None:
                    self._lose("stalled")
                self.partner_spin_s = self._ctl[_PSPIN] / 1e9
                self._workers.close()
        _active = None
        os.sched_setaffinity(0, self._mask)
        # the partner's set-up closure holds this team: break the cycle,
        # or A, the factor and the mapping live until a cyclic collection
        self._workers = self._proc = self.a = self.plan = None
        self._sides.clear()
        self.stop_s = time.perf_counter() - t0

    def census(self) -> dict:
        """What a solve's span records about its team: its size, the
        barriers the caller met, the seconds each side spent waiting, the
        per-solve cost of forking, starting, stopping and reaping the
        partner, why the partner was lost ("" when it was not), the jobs
        the caller took back because the partner had not started them,
        and how often the caller slept at a barrier."""
        return {
            "team": 2,
            "team_barriers": self.barriers,
            "team_spin_s": self.spin_s,
            "team_partner_spin_s": self.partner_spin_s,
            "team_overhead_s": self.start_s + self.stop_s,
            "team_lost": self.lost or "",
            "team_taken_back": self.taken_back,
            "team_naps": self.naps,
        }


NO_TEAM = {"team": 1}
"""The census of a solve that ran in one process."""
