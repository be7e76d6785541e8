"""Multi-RHS block conjugate gradient (O'Leary 1980) with deflation.

The serve layer (:mod:`repro.serve`) coalesces concurrent requests that
share one operator/preconditioner into a single *blocked* solve: all
``s`` right-hand sides advance together through one Krylov iteration,
and the block Krylov space — spanned by every column's residual —
converges in fewer iterations than any single-vector solve.  That is
the whole of the throughput win over sequential :func:`cg_solve`
(tracked as the bench metric ``solvers.block_cg_s_per_rhs``).  Every
product is a sparse-times-dense-block one, but reading the matrix once
for ``s`` vectors buys nothing measurable: on block 1.5 with 8 loads,
block CG took 65 block iterations against 134 per column (0.153 against
0.378 s per right-hand side), while the same 8 CGs stepped together
through the batched kernels took 0.395 s.

Block CG's classic failure mode is a (near-)singular ``P^T A P`` or
``Z^T R`` once columns converge or become linearly dependent.  This
implementation is breakdown-safe two ways:

- **deflation of converged columns** — a column whose relative residual
  meets ``eps`` is frozen (its solution column stops updating) and
  removed from the active block, so it can never degenerate the small
  ``s x s`` systems;
- **least-squares fallback** — if the small system is still singular
  (e.g. two identical right-hand sides), the step is computed by
  ``lstsq`` pseudo-inverse instead of aborting, and the event is
  recorded in the :class:`~repro.resilience.taxonomy.SolveReport`.

Instrumentation mirrors :func:`~repro.solvers.cg.cg_solve`: an
observability span per solve, per-iteration events, and a tagged
:class:`~repro.resilience.taxonomy.FailureReason` on every outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels import csr_matvecs, team_for
from repro.kernels.team import NO_TEAM
from repro.obs import session as obs_session, span as obs_span
from repro.precond.base import IdentityPreconditioner, Preconditioner
from repro.resilience.taxonomy import FailureReason, SolveReport
from repro.solvers.cg import _float64_csr, check_finite_vector
from repro.utils.timing import Timer

__all__ = ["BlockCGResult", "block_cg_solve"]


@dataclass
class BlockCGResult:
    """Outcome of a blocked multi-RHS CG solve.

    ``x`` has one column per right-hand side.  ``iterations`` counts
    *block* iterations (one block matvec each); ``column_iterations[j]``
    is the block iteration at which column *j* first met the tolerance
    (-1 if it never did).  ``deflations`` counts columns retired from the
    active block before the loop ended.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    converged_columns: np.ndarray
    column_iterations: np.ndarray
    relative_residuals: np.ndarray
    solve_seconds: float
    setup_seconds: float = 0.0
    deflations: int = 0
    lstsq_fallbacks: int = 0
    history: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    reason: FailureReason | None = None

    def __post_init__(self) -> None:
        if self.converged and self.reason is None:
            self.reason = FailureReason.CONVERGED

    @property
    def nrhs(self) -> int:
        return int(self.x.shape[1])

    @property
    def total_seconds(self) -> float:
        return self.setup_seconds + self.solve_seconds

    def __repr__(self) -> str:
        status = (
            "converged"
            if self.converged
            else f"NO CONV. [{self.reason if self.reason is not None else 'unspecified'}]"
        )
        return (
            f"BlockCGResult({status}: {int(self.converged_columns.sum())}/"
            f"{self.nrhs} columns in {self.iterations} block iters, "
            f"worst rel.res={float(self.relative_residuals.max(initial=0.0)):.3e}, "
            f"solve={self.solve_seconds:.3f}s)"
        )


def _as_block_matvec(a):
    """The ``(n, s)`` block product with the scipy sparse matrix *a*, one
    pass over it per call: the compiled block product
    (:func:`repro.kernels.csr_matvecs`) on *a* normalised to float64 CSR
    once per solve, like :func:`~repro.solvers.cg._as_matvec`."""
    a_csr = _float64_csr(a)
    return lambda v: csr_matvecs(a_csr, v)


def _direction(team, v: np.ndarray, copy: bool) -> np.ndarray:
    """The search directions *v* as the solve keeps them: in the team's
    shared panel when a team runs the solve (its products are shared
    then), else as a C-contiguous array of their own."""
    if team is None:
        return v.copy() if copy else np.ascontiguousarray(v)
    d = team.direction(v.shape[1])
    d[...] = v  # may overlap v: numpy copies through a temporary then
    return d


def _solve_small(g: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve the small ``s x s`` system ``g @ x = rhs``; second element
    reports whether the least-squares fallback was needed."""
    try:
        return np.linalg.solve(g, rhs), False
    except np.linalg.LinAlgError:
        x, *_ = np.linalg.lstsq(g, rhs, rcond=None)
        return x, True


def block_cg_solve(
    a,
    b: np.ndarray,
    preconditioner: Preconditioner | None = None,
    *,
    eps: float = 1e-8,
    max_iter: int | None = None,
    record_history: bool = True,
    report: SolveReport | None = None,
) -> BlockCGResult:
    """Solve ``A X = B`` for all columns of *B* by preconditioned block CG.

    Parameters
    ----------
    a:
        SPD matrix, any scipy sparse format (normalised once to float64
        CSR for the compiled block product).
    b:
        Right-hand sides, shape ``(n, s)`` (a 1-D *b* is treated as one
        column).  Must be finite.
    preconditioner:
        Shared action ``Z = M^{-1} R``, applied to the whole active block
        by its ``apply_block``; identity when omitted.
    eps:
        Per-column relative residual tolerance ``||r_j|| / ||b_j||``,
        matching :func:`~repro.solvers.cg.cg_solve`.
    max_iter:
        Block-iteration cap; default ``max(1000, 10 n)`` as for the
        single-RHS solver.
    report:
        Optional :class:`~repro.resilience.taxonomy.SolveReport`;
        deflations, least-squares fallbacks, and failure detections are
        appended to it.
    """
    b = np.asarray(b, dtype=np.float64)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    if b.ndim != 2:
        raise ValueError(f"b must be a vector or an (n, s) block, got shape {b.shape}")
    for j in range(b.shape[1]):
        check_finite_vector(b[:, j], f"b[:, {j}]")
    n, s = b.shape
    if s == 0:
        raise ValueError("b has zero right-hand sides")
    m = preconditioner if preconditioner is not None else IdentityPreconditioner()
    if max_iter is None:
        max_iter = max(1000, 10 * n)

    x = np.zeros((n, s))
    bnorm = np.linalg.norm(b, axis=0)
    # zero columns are solved by x = 0 with zero residual
    zero_rhs = bnorm == 0.0
    bnorm_safe = np.where(zero_rhs, 1.0, bnorm)

    def record(kind: str, reason: FailureReason | None, it: int, detail: str) -> None:
        if report is not None:
            report.record(kind, "block_cg", reason, iteration=it, detail=detail)

    a_csr = _float64_csr(a)
    sess = obs_session()
    timer = Timer()
    reason: FailureReason | None = None
    column_iterations = np.full(s, -1, dtype=np.int64)
    history: list[np.ndarray] = []
    deflations = 0
    lstsq_fallbacks = 0

    with obs_span(
        "block_cg_solve",
        ndof=n,
        nrhs=s,
        precond=getattr(m, "name", type(m).__name__),
        eps=eps,
    ) as solve_span, timer, team_for(a_csr, getattr(m, "plan", None), s) as team:
        matvec = _as_block_matvec(a_csr) if team is None else team.product
        r = b.copy()  # the residual of the zero start
        # zero-RHS columns use an absolute criterion (bnorm_safe = 1):
        # their residual is exactly zero already
        relres = np.linalg.norm(r, axis=0) / bnorm_safe
        history.append(relres.copy())
        converged_cols = relres <= eps
        column_iterations[converged_cols] = 0
        active = np.flatnonzero(~converged_cols)
        it = 0

        if active.size:
            ra = np.ascontiguousarray(r[:, active])
            za = m.apply_block(ra, out=np.empty_like(ra))
            pa = _direction(team, za, copy=True)
            rho = za.T @ ra

        with obs_span("block_cg_iterations", nrhs_active=int(active.size)):
            while active.size and it < max_iter:
                q = matvec(pa)
                pq = pa.T @ q
                if not np.isfinite(pq).all():
                    reason = FailureReason.NAN_DETECTED
                    record("detect", reason, it, "P^T A P has non-finite entries")
                    break
                diag_pq = np.diagonal(pq)
                if (diag_pq <= 0).any():
                    reason = FailureReason.BREAKDOWN_INDEFINITE
                    record(
                        "detect", reason, it,
                        f"min diag(P^T A P) = {diag_pq.min():.3e}",
                    )
                    break
                alpha, fell_back = _solve_small(pq, rho)
                if fell_back:
                    lstsq_fallbacks += 1
                    record(
                        "recover", None, it,
                        "singular P^T A P: least-squares step "
                        "(dependent right-hand sides)",
                    )
                x[:, active] += pa @ alpha
                ra -= q @ alpha
                it += 1
                norms = np.linalg.norm(ra, axis=0)
                relres[active] = norms / bnorm_safe[active]
                history.append(relres.copy())
                if sess is not None:
                    sess.event(
                        "block_cg.iteration",
                        it=it,
                        active=int(active.size),
                        worst=float(relres[active].max()),
                    )
                if not np.isfinite(norms).all():
                    reason = FailureReason.NAN_DETECTED
                    record("detect", reason, it, "residual is NaN/Inf")
                    break

                done = relres[active] <= eps
                if done.any():
                    newly = active[done]
                    column_iterations[newly] = it
                    converged_cols[newly] = True
                    deflations += int(newly.size)
                    record(
                        "deflate", None, it,
                        f"{newly.size} column(s) converged; "
                        f"{int((~done).sum())} remain",
                    )
                    keep = ~done
                    active = active[keep]
                    if active.size == 0:
                        break
                    ra = np.ascontiguousarray(ra[:, keep])
                    pa = _direction(team, pa[:, keep], copy=False)
                    rho = rho[np.ix_(keep, keep)]

                za = m.apply_block(ra, out=np.empty((n, active.size)))
                rho_new = za.T @ ra
                beta, fell_back = _solve_small(rho, rho_new)
                if fell_back:
                    lstsq_fallbacks += 1
                    record(
                        "recover", None, it,
                        "singular Z^T R: least-squares direction update",
                    )
                if team is None:
                    pa = za + pa @ beta
                else:
                    np.add(za, pa @ beta, out=pa)
                rho = rho_new

        converged = bool(converged_cols.all())
        if not converged and reason is None:
            reason = FailureReason.MAX_ITER
            record("detect", reason, it, f"cap {max_iter}")
    census = NO_TEAM if team is None else team.census()

    res = BlockCGResult(
        x=x[:, 0] if squeeze else x,
        iterations=it,
        converged=converged,
        converged_columns=converged_cols,
        column_iterations=column_iterations,
        relative_residuals=relres,
        solve_seconds=timer.elapsed,
        setup_seconds=getattr(m, "setup_seconds", 0.0),
        deflations=deflations,
        lstsq_fallbacks=lstsq_fallbacks,
        history=np.asarray(history) if record_history else np.empty((0, 0)),
        reason=reason,
    )
    solve_span.set(
        iterations=res.iterations,
        converged=res.converged,
        reason=str(res.reason),
        deflations=res.deflations,
        **census,
    )
    return res
