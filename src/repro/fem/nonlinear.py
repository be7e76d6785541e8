"""Augmented Lagrange / Newton-Raphson driver for contact (paper Fig. 2).

GeoFEM solves fault-zone contact with the augmented Lagrange method: the
tied-contact constraints ``C u = 0`` are enforced by a penalty term plus
multipliers updated between outer cycles.  For the frictionless,
geometrically linear problems of the paper each Newton-Raphson cycle is a
single linear solve, so the outer loop count *is* the NR cycle count.

The Fig. 2 trade-off emerges directly: a large penalty converges in few
outer cycles but each inner CG solve needs many iterations (the penalty
dominates the spectrum); a small penalty is the reverse.

Resilience: an inner solve that breaks down or meets a NaN (the very
regime Table 2's "No Conv." rows live in) no longer propagates a bogus
displacement field.  The driver discards the poisoned
iterate, *backs the penalty off* by :data:`PENALTY_BACKOFF` (a smaller
lambda moves the augmented matrix away from the breakdown edge at the
cost of more outer cycles), rebuilds the system and retries, at most
:data:`MAX_PENALTY_BACKOFFS` times — recording the whole trail in a
:class:`~repro.resilience.taxonomy.SolveReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.fem.contact import constraint_matrix
from repro.fem.mesh import Mesh
from repro.obs import span as obs_span
from repro.precond.base import Preconditioner
from repro.resilience.checkpoint import AlmJournal, fingerprint_arrays
from repro.resilience.taxonomy import FailureReason, SolveReport
from repro.solvers.cg import cg_solve
from repro.sparse.affine import AffineOperator
from repro.utils.validate import check_square_csr

# inner-solve failures that penalty back-off can plausibly cure; MAX_ITER
# is excluded — it means "not enough iterations", not "broken system"
_BACKOFF_REASONS = frozenset(
    {FailureReason.BREAKDOWN_INDEFINITE, FailureReason.NAN_DETECTED}
)

PENALTY_BACKOFF = 0.1
"""The factor a failed inner solve multiplies the penalty by."""

MAX_PENALTY_BACKOFFS = 2
"""How many back-offs one run may take before it gives up."""


@dataclass
class NonlinearContactResult:
    """Outcome of an ALM contact solve."""

    u: np.ndarray
    cycles: int
    converged: bool
    constraint_norm: float
    cg_iterations: list[int] = field(default_factory=list)
    penalty: float = 0.0
    """The penalty actually in force at the end (after any back-offs)."""
    penalty_backoffs: int = 0
    penalty_trail: list[float] = field(default_factory=list)
    """Penalty in force at each completed outer cycle."""
    resumed_from_cycle: int = 0
    """> 0 when the run resumed from a checkpoint journal at that cycle."""
    report: SolveReport | None = None

    @property
    def total_cg_iterations(self) -> int:
        return int(sum(self.cg_iterations))


def solve_nonlinear_contact(
    a_free: sp.csr_matrix,
    b: np.ndarray,
    groups: list[np.ndarray],
    n_nodes: int,
    penalty: float,
    precond_factory: Callable[[sp.csr_matrix], Preconditioner],
    *,
    constraint_tol: float = 1e-8,
    max_cycles: int = 50,
    cg_eps: float = 1e-8,
    cg_max_iter: int | None = None,
    checkpoint_path: str | Path | None = None,
    cycle_callback: Callable[[int, dict], None] | None = None,
    report: SolveReport | None = None,
) -> NonlinearContactResult:
    """Augmented-Lagrange iteration for tied contact.

    Parameters
    ----------
    a_free:
        Stiffness with boundary conditions applied but *without* the
        contact penalty (the ALM adds it here); any scipy sparse format.
    groups:
        Contact groups (the constraints ``u_i = u_j`` inside each group).
    penalty:
        ALM penalty (the paper's lambda).
    precond_factory:
        Builds the preconditioner for the augmented matrix
        ``A + penalty * C^T C`` once; reused across cycles.  After a
        penalty back-off the pattern is unchanged, so a preconditioner
        exposing ``refactor`` (the IC family) is numerically re-setup on
        its cached symbolic pattern instead of rebuilt; only
        preconditioners without ``refactor`` go through the factory
        again.  When an inner solve fails with a breakdown-class reason,
        the poisoned iterate is discarded, the penalty is multiplied by
        :data:`PENALTY_BACKOFF` and the system rebuilt, at most
        :data:`MAX_PENALTY_BACKOFFS` times.  Healthy systems never
        trigger this path, so paper runs are bit-identical.
    checkpoint_path:
        Durable restart (DESIGN.md section 10): when a path is given,
        the outer-loop state (u, multipliers, penalty trail, event
        report) is journaled there after every cycle via the atomic,
        checksummed container of :mod:`repro.io.journal`.
        A rerun with the same inputs and path resumes from the last
        completed cycle and continues bit-for-bit; a journal that is
        corrupt, truncated, or belongs to different inputs raises
        :class:`~repro.io.journal.JournalError` instead of resuming
        wrongly.  The file is left in place on convergence (a resumed
        finished run returns immediately).
    cycle_callback:
        Optional ``callback(cycle, info)`` invoked after every completed
        outer cycle (after the journal write, so an exception raised by
        the callback — e.g. a simulated kill in the failure sweep —
        leaves a valid checkpoint behind).  ``info`` carries
        ``penalty``, ``gap_norm``, ``cg_iterations`` and ``backoffs``.
    report:
        Optional shared :class:`SolveReport`; all inner-solve and ALM
        events land in it (one is created when omitted, reachable via
        ``result.report``).  On resume the journaled trail is prepended.

    Notes
    -----
    Constraint convergence is measured as
    ``||C u|| / ||u||`` (relative constraint violation).
    """
    if report is None:
        report = SolveReport()
    c = constraint_matrix(groups, n_nodes)
    a_free = check_square_csr(a_free)

    # A_free + lambda C^T C: every penalty, back-offs included, is a
    # values-only write into the same CSR object
    operator = AffineOperator(a_free, c.T @ c)

    def build_system(lam_penalty: float):
        with obs_span("alm_build_system", penalty=lam_penalty):
            return operator.at(lam_penalty)

    journal = None
    state = None
    if checkpoint_path is not None:
        # the fingerprint binds the journal to this exact run: system
        # arrays, constraints, and every parameter that steers the loop
        fingerprint = fingerprint_arrays(
            a_free.data,
            a_free.indices,
            a_free.indptr,
            np.asarray(b, dtype=np.float64),
            *groups,
            n_nodes,
            penalty,
            constraint_tol,
            max_cycles,
            cg_eps,
            cg_max_iter,
            PENALTY_BACKOFF,
            MAX_PENALTY_BACKOFFS,
            0,  # the inner stagnation window, kept so old journals resume
        )
        journal = AlmJournal(checkpoint_path, fingerprint)
        state = journal.load()  # raises JournalError on a bad/foreign file

    lam = np.zeros(c.shape[0])
    u = np.zeros(a_free.shape[0])
    cg_iters: list[int] = []
    penalty_trail: list[float] = []
    converged = False
    gap_norm = np.inf
    backoffs = 0
    cycles = 0
    resumed_from = 0
    if state is not None:
        u = state["u"].copy()
        lam = state["lam"].copy()
        penalty = state["penalty"]
        backoffs = state["backoffs"]
        cycles = state["cycle"]
        cg_iters = state["cg_iterations"]
        penalty_trail = state["penalty_trail"]
        gap_norm = state["gap_norm"]
        converged = state["converged"]
        resumed_from = cycles
        report.events[:0] = state["report"].events
        report.record(
            "info",
            "alm",
            iteration=cycles,
            detail=f"resumed from checkpoint {journal.path} at cycle {cycles}"
            + (" (already converged)" if converged else ""),
        )

    a_aug = build_system(penalty)
    m = None if converged else precond_factory(a_aug)

    def end_of_cycle() -> None:
        if journal is not None:
            journal.save(
                cycle=cycles,
                u=u,
                lam=lam,
                penalty=penalty,
                backoffs=backoffs,
                cg_iterations=cg_iters,
                penalty_trail=penalty_trail,
                gap_norm=gap_norm,  # json carries Infinity fine pre-first-cycle
                converged=converged,
                report=report,
            )
        if cycle_callback is not None:
            cycle_callback(
                cycles,
                {
                    "penalty": penalty,
                    "gap_norm": gap_norm,
                    "cg_iterations": list(cg_iters),
                    "backoffs": backoffs,
                    "converged": converged,
                },
            )

    with obs_span(
        "solve_nonlinear_contact",
        ndof=a_free.shape[0],
        ngroups=len(groups),
        penalty=penalty,
    ) as top_span:
        while not converged and cycles < max_cycles:
            cycles += 1
            with obs_span("alm_cycle", cycle=cycles, penalty=penalty):
                rhs = b - c.T @ lam
                res = cg_solve(
                    a_aug,
                    rhs,
                    m,
                    eps=cg_eps,
                    max_iter=cg_max_iter,
                    x0=u,
                    record_history=False,
                    report=report,
                )
                cg_iters.append(res.iterations)
                if not res.converged and res.reason in _BACKOFF_REASONS:
                    # the iterate is untrustworthy — do NOT fold it into u
                    if backoffs >= MAX_PENALTY_BACKOFFS:
                        report.record(
                            "detect",
                            "alm",
                            res.reason,
                            iteration=cycles,
                            detail=f"inner solve failed; back-off budget "
                            f"({MAX_PENALTY_BACKOFFS}) exhausted",
                        )
                        break
                    backoffs += 1
                    old_penalty = penalty
                    penalty = penalty * PENALTY_BACKOFF
                    report.record(
                        "retry",
                        "alm",
                        res.reason,
                        iteration=cycles,
                        detail=f"penalty back-off {old_penalty:.3e} -> "
                        f"{penalty:.3e}, rebuilding system",
                        backoff=backoffs,
                    )
                    a_aug = build_system(penalty)
                    # same pattern, new values: numeric-only
                    # refactorization when the preconditioner supports it
                    # (one symbolic setup for the whole ALM run), full
                    # rebuild otherwise
                    if hasattr(m, "refactor"):
                        m.refactor(a_aug)
                    else:
                        m = precond_factory(a_aug)
                    lam = lam * PENALTY_BACKOFF  # keep multiplier scale consistent
                    penalty_trail.append(penalty)
                    end_of_cycle()
                    continue
                u = res.x
                gap = c @ u
                unorm = max(float(np.linalg.norm(u)), 1e-30)
                gap_norm = float(np.linalg.norm(gap)) / unorm
                penalty_trail.append(penalty)
                if gap_norm <= constraint_tol:
                    converged = True
                    if backoffs:
                        report.record(
                            "recover",
                            "alm",
                            iteration=cycles,
                            detail=f"converged at penalty {penalty:.3e} after "
                            f"{backoffs} back-off(s)",
                        )
                    end_of_cycle()
                    break
                lam = lam + penalty * gap
                end_of_cycle()
        top_span.set(
            cycles=cycles, converged=converged, backoffs=backoffs
        )

    return NonlinearContactResult(
        u=u,
        cycles=cycles,
        converged=converged,
        constraint_norm=gap_norm,
        cg_iterations=cg_iters,
        penalty=penalty,
        penalty_backoffs=backoffs,
        penalty_trail=penalty_trail,
        resumed_from_cycle=resumed_from,
        report=report,
    )
