"""Preconditioned conjugate gradient solver.

GeoFEM's solver (paper section 2.2): CG on symmetric positive definite
systems, convergence criterion ``||r||_2 / ||b||_2 <= eps`` with
``eps = 1e-8`` throughout the paper.  The implementation records the
residual history and per-phase timings that the benches report, and flags
non-convergence the way the paper's tables do ("No Conv.") — but, unlike
the paper's tables, it also records *why* via
:class:`~repro.resilience.taxonomy.FailureReason` (breakdown vs NaN vs
stagnation vs iteration cap), so failure rows are diagnosable.  The
iteration exists once, rank-locally, as :func:`cg_program`: :func:`cg_solve`
runs it for one rank that owns the whole matrix,
:func:`~repro.parallel.distributed.parallel_cg` runs it per domain.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.kernels import csr_matvec, team_for
from repro.kernels.team import NO_TEAM
from repro.obs import session as obs_session, span as obs_span
from repro.precond.base import IdentityPreconditioner, Preconditioner
from repro.resilience.taxonomy import FailureReason, SolveReport
from repro.utils.timing import Timer


def _supports_out(apply_fn) -> bool:
    """Whether a preconditioner's ``apply`` accepts an ``out=`` buffer."""
    try:
        return "out" in inspect.signature(apply_fn).parameters
    except (TypeError, ValueError):
        return False


def check_finite_vector(v: np.ndarray, name: str) -> np.ndarray:
    """Fail fast on NaN/Inf input instead of iterating on poison."""
    v = np.asarray(v, dtype=np.float64)
    bad = ~np.isfinite(v)
    if bad.any():
        idx = np.flatnonzero(bad)
        raise ValueError(
            f"{name} contains {idx.size} non-finite entries "
            f"(first at index {idx[0]}: {v[idx[0]]}); refusing to iterate on "
            f"garbage input — clean the right-hand side / initial guess first"
        )
    return v


STAGNATION_RTOL = 0.99
"""The factor a stagnation window's best residual must beat the best
before it by (a 1 % improvement)."""


def _stagnated(history, it: int, window: int) -> bool:
    """True when the best residual of the last *window* entries of
    ``history[: it + 1]`` failed to improve on the best before them by
    at least a factor :data:`STAGNATION_RTOL`."""
    if window <= 0 or it < window:
        return False
    split = it + 1 - window
    return min(history[split : it + 1]) > STAGNATION_RTOL * min(history[:split])


@dataclass
class CGResult:
    """Outcome of a CG solve.

    ``iterations`` counts matrix-vector products after the initial
    residual, matching how the paper's tables count iterations.
    ``reason`` says why the solve stopped: an explicit
    ``FailureReason.CONVERGED`` tag on success (normalized in
    ``__post_init__``, so no constructor needs to remember it) and a
    failure member otherwise, so "No Conv." table rows can distinguish
    breakdown from iteration exhaustion.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    relative_residual: float
    solve_seconds: float
    setup_seconds: float = 0.0
    history: np.ndarray = field(default_factory=lambda: np.empty(0))
    reason: FailureReason | None = None
    rollbacks: int = 0
    """Checkpoint rollbacks absorbed during the solve (distributed CG
    with checkpointing; always 0 for the sequential solver)."""

    def __post_init__(self) -> None:
        if self.converged and self.reason is None:
            self.reason = FailureReason.CONVERGED

    @property
    def total_seconds(self) -> float:
        """Set-up + solve, the paper's headline per-preconditioner metric."""
        return self.setup_seconds + self.solve_seconds

    def __repr__(self) -> str:  # compact, bench-friendly
        if self.converged:
            status = "converged"
        else:
            # reason is always printable: a tagged member, or an explicit
            # "unspecified" for hand-built results — never "None"
            status = f"NO CONV. [{self.reason if self.reason is not None else 'unspecified'}]"
        return (
            f"CGResult({status} in {self.iterations} iters, "
            f"rel.res={self.relative_residual:.3e}, "
            f"solve={self.solve_seconds:.3f}s)"
        )


@dataclass
class CGOutcome:
    """How a rank's CG ended.  Every rank decides from the same reduced
    scalars, so every rank returns the same one."""

    iterations: int
    converged: bool
    reason: FailureReason | None = None
    detail: str = ""


def cg_program(
    matvec,
    m: Preconditioner,
    b: np.ndarray,
    x: np.ndarray,
    r: np.ndarray,
    p: np.ndarray,
    history,
    *,
    eps: float,
    max_iter: int,
    stagnation_window: int,
    x0: np.ndarray | None = None,
    store=None,
    rank: int = 0,
    resume=None,
    traced: bool = False,
):
    """One rank's preconditioned CG: the SPMD body of paper section 2.2,
    and the only place the iteration and its detectors are written.

    A generator over what its rank owns — the rows of ``b`` / ``x`` /
    ``r`` / ``p``, the preconditioner *m* on them, and *matvec*, itself a
    generator function so that a distributed rank can meet its
    neighbours inside it — that yields at each collective (a float or a
    small vector, to be answered with the global sum) and returns a
    :class:`CGOutcome`.  Whoever advances it supplies the communication:
    :func:`cg_solve` is the one-rank case and hands every value straight
    back, :func:`~repro.parallel.distributed.parallel_cg` runs one
    program per domain.

    ``r.r`` (convergence test) and ``r.z`` (CG beta) ride in one fused
    *vector* allreduce, 2 per iteration instead of 3 (the latency the
    paper's Fig. 20 model cares about).  That requires applying the
    preconditioner before the convergence check — a converged solve pays
    one apply it does not use; the iterates are unchanged.

    *history* gets every iteration's relative residual by ``append`` and
    is read back by index.  *x0* is an optional start iterate (``b.b``
    then joins the first reduction), *store* an optional
    :class:`~repro.resilience.checkpoint.CGCheckpointStore` this rank
    snapshots into, *resume* the checkpoint whose vectors were just
    restored into ``x`` / ``r`` / ``p``, and *traced* marks the one rank
    that speaks for the solve in the trace (its ``cg.iteration`` events).
    """
    reuse_z = _supports_out(m.apply)
    sess = obs_session() if traced else None

    def failed(reason: FailureReason, detail: str) -> CGOutcome:
        return CGOutcome(it, False, reason, detail)

    if resume is None:
        it = 0
        if x0 is None:
            x[:] = 0.0
            r[:] = b
        else:
            x[:] = x0
            r[:] = b - (yield from matvec(x))
        z = m.apply(r)
        dots = [r @ r, r @ z]
        if x0 is not None:
            dots.append(b @ b)
        sums = yield np.array(dots)
        rz = sums[1]
        bnorm = np.sqrt(sums[0] if x0 is None else sums[2])  # r = b from zero
        if not bnorm:  # A x = 0 is solved by 0, whatever x0 was
            x[:] = 0.0
        history.append(np.sqrt(sums[0]) / bnorm if bnorm else 0.0)
        if history[0] <= eps:
            return CGOutcome(0, True)
        p[:] = z
    else:
        it, rz, bnorm, z = resume.iteration, resume.rz, resume.bnorm, None
    w = np.empty_like(x)  # alpha p, then alpha q: the products the updates add
    while it < max_iter:
        if store is not None and store.due(it) and (resume is None or it > resume.iteration):
            store.save(rank, it, (x, r, p), rz, bnorm)
        q = yield from matvec(p)
        pq = yield float(p @ q)
        if not np.isfinite(pq):
            return failed(FailureReason.NAN_DETECTED, f"p.q = {pq}")
        if pq <= 0:
            # matrix or preconditioner lost positive definiteness
            return failed(FailureReason.BREAKDOWN_INDEFINITE, f"p.q = {pq:.3e}")
        alpha = rz / pq
        x += np.multiply(alpha, p, out=w)
        r -= np.multiply(alpha, q, out=w)
        it += 1
        # z's buffer is recycled across iterations when the preconditioner
        # supports it; p is updated in place and the updates' products go
        # through w — the loop body then allocates no vector beyond the
        # matvec output
        z = m.apply(r, out=z) if reuse_z and z is not None else m.apply(r)
        sums = yield np.array([r @ r, r @ z])
        relres = np.sqrt(sums[0]) / bnorm
        history.append(relres)
        if sess is not None:
            sess.event("cg.iteration", it=it, relres=float(relres))
        if not np.isfinite(relres):
            return failed(FailureReason.NAN_DETECTED, "residual is NaN/Inf")
        if relres <= eps:
            return CGOutcome(it, True)
        if _stagnated(history, it, stagnation_window):
            return failed(
                FailureReason.STAGNATION,
                f"no {1 - STAGNATION_RTOL:.0%} improvement in "
                f"{stagnation_window} iterations",
            )
        beta = sums[1] / rz
        rz = sums[1]
        p *= beta
        p += z
    return failed(FailureReason.MAX_ITER, f"cap {max_iter}")


def cg_solve(
    a,
    b: np.ndarray,
    preconditioner: Preconditioner | None = None,
    *,
    eps: float = 1e-8,
    max_iter: int | None = None,
    x0: np.ndarray | None = None,
    record_history: bool = True,
    stagnation_window: int = 0,
    report: SolveReport | None = None,
) -> CGResult:
    """Solve ``A x = b`` by preconditioned CG.

    Parameters
    ----------
    a:
        SPD matrix, any scipy sparse format (normalised once to float64
        CSR for the compiled product).
    b:
        Right-hand side.  Must be finite (NaN/Inf raises ``ValueError``).
    preconditioner:
        Action ``z = M^{-1} r``; identity when omitted.
    eps:
        Relative residual tolerance (paper: 1e-8).
    max_iter:
        Iteration cap; default ``10 * ndof`` but at least 1000, so the
        paper's "> 1000 iterations = No Conv." experiments are expressible
        by passing ``max_iter=1000``.
    x0:
        Start iterate (zero when omitted), passed through the preconditioner's ``start``.
    stagnation_window:
        When > 0, stop with ``reason=STAGNATION`` if the best relative
        residual of the last *window* iterations did not improve on the
        best before them by at least a factor :data:`STAGNATION_RTOL`.
        0 (default) disables the check, reproducing the paper's runs.
    report:
        Optional :class:`~repro.resilience.taxonomy.SolveReport`; every
        failure detection is appended to it.
    """
    a_csr = _float64_csr(a)
    b = check_finite_vector(b, "b")
    n = b.size
    m = preconditioner if preconditioner is not None else IdentityPreconditioner()
    if max_iter is None:
        max_iter = max(1000, 10 * n)
    x0 = None if x0 is None else check_finite_vector(x0, "x0")

    x, r = np.empty(n), np.empty(n)
    history: list = []
    pname = getattr(m, "name", type(m).__name__)
    timer = Timer()
    with obs_span(
        "cg_solve",
        ndof=n,
        precond=pname,
        eps=eps,
    ) as solve_span, timer, team_for(a_csr, getattr(m, "plan", None)) as team:
        # with a team, p lives where the partner reads it: its products
        # are shared (a start iterate's residual is not)
        p = np.empty(n) if team is None else team.direction()

        def matvec(v):  # the whole matrix is this rank's: no neighbour to meet
            return csr_matvec(a_csr, v) if team is None or v is not p else team.product(v)
            yield

        x0 = m.start(b, x0) if hasattr(m, "start") else x0  # a duck-typed m starts as given
        with obs_span("cg_iterations"):
            program = cg_program(
                matvec, m, b, x, r, p, history,
                eps=eps,
                max_iter=max_iter,
                stagnation_window=stagnation_window,
                x0=x0,
                traced=True,
            )
            # one rank: the global sum of every collective is the value itself
            try:
                reply = next(program)
                while True:
                    reply = program.send(reply)
            except StopIteration as stop:
                out: CGOutcome = stop.value
    census = NO_TEAM if team is None else team.census()
    if out.reason is not None and report is not None:
        report.record(
            "detect", "cg", out.reason, iteration=out.iterations, detail=out.detail
        )

    res = CGResult(
        x=x,
        iterations=out.iterations,
        converged=out.converged,
        relative_residual=float(history[-1]),
        solve_seconds=timer.elapsed,
        setup_seconds=m.setup_seconds,
        history=np.asarray(history) if record_history else np.empty(0),
        reason=out.reason,
    )
    solve_span.set(
        iterations=res.iterations,
        converged=res.converged,
        reason=str(res.reason),
        **census,
    )
    return res


def _float64_csr(a) -> sp.csr_matrix:
    """*a* as float64 CSR — what the compiled kernels take without a
    conversion copy per product; a no-op for the matrices the stack builds."""
    if not sp.issparse(a):
        raise TypeError(f"expected a scipy sparse matrix, got {type(a).__name__}")
    a = a.tocsr()
    return a if a.dtype == np.float64 else a.astype(np.float64)


def _as_matvec(a):
    """The product with the scipy sparse matrix *a*: a direct
    compiled-kernel call (:func:`repro.kernels.csr_matvec`) on *a*
    normalised to float64 CSR once per solve, not per product."""
    a_csr = _float64_csr(a)
    return lambda v: csr_matvec(a_csr, v)
