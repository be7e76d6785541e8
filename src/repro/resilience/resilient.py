"""Preconditioner fallback chain: escalate instead of failing.

The paper's Table 2 shows the robustness ladder empirically: scalar
IC(0) collapses at large penalty, BIC(0) survives longer, SB-BIC(0)
survives to ``lambda = 1e10`` (Appendix A).  :class:`ResilientSolver`
turns that observation into a recovery mechanism: when a preconditioner
fails to *set up* (singular pivots) or the CG it drives *breaks down*
(indefinite ``p^T A p``, NaN, stagnation), the solver drops one rung —

    SB-BIC(0) -> BIC(0) -> BIC(0) + Manteuffel ``alpha I`` shift(s)
    -> diagonal scaling

— resuming from the best iterate reached so far rather than restarting
from zero, and logging every detection / escalation / recovery in a
:class:`~repro.resilience.taxonomy.SolveReport`.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.obs import metric_inc, span as obs_span
from repro.precond.base import Preconditioner
from repro.precond.families import FAMILY_TABLE, ladder_families
from repro.resilience.taxonomy import FailureReason, PivotNudgeWarning, SolveReport
from repro.solvers.cg import CGResult, cg_solve, check_finite_vector

__all__ = ["FallbackStage", "ResilientSolver", "build_ladder", "default_ladder"]

SHIFTS = (0.01, 0.1)
"""The Manteuffel shifts of the level-0 IC rung's retries, as fractions
of the mean |diagonal|."""


@dataclass
class FallbackStage:
    """One rung of the escalation ladder: a named preconditioner recipe."""

    name: str
    build: Callable[[], Preconditioner]
    """Zero-argument factory; may raise (e.g. ``LinAlgError`` on a
    singular factorization) — a raising stage is skipped, not fatal."""
    family: str | None = None
    """The family-table name the rung builds (a shifted retry counts
    toward its base family); None for a hand-made stage."""


def build_ladder(
    a,
    contact_groups: list[np.ndarray] | None,
    order: tuple[str, ...],
    *,
    b: int = 3,
) -> list[FallbackStage]:
    """The escalation ladder leading with the families in *order*.

    ``sbbic0`` becomes an SB-BIC(0) rung when contact groups exist;
    ``bic0`` / ``ic0`` become the level-0 IC rung the matrix admits
    (BIC(0), or scalar IC(0) when the dimension is not a multiple of
    *b*) followed by its shifted retries, Manteuffel-style
    ``alpha * dbar * I`` added to the pivots for each ``alpha`` in
    :data:`SHIFTS` (``dbar`` = mean |diagonal|); ``diag`` becomes
    diagonal scaling — which is also always the last rung, whatever
    *order* says, so no caller can remove the rung that cannot break.

    The IC rungs (plain + every shifted retry) share one level-0
    symbolic pattern phase: escalating to a shifted rung refactors the
    previously built factorization with the new ``shift`` (numeric-only),
    or — if the plain rung never got built — runs the numeric phase on
    the cached symbolic object.  Only the first of them reached ever
    pays for ordering/pattern/schedule construction.
    """
    a = sp.csr_matrix(a)
    dbar = float(np.abs(a.diagonal()).mean()) or 1.0
    groups = list(contact_groups) if contact_groups else []
    blocked = a.shape[0] % b == 0
    sb, diag = FAMILY_TABLE["sbbic0"], FAMILY_TABLE["diag"]
    ic = FAMILY_TABLE["bic0" if blocked else "ic0"]
    ic_kw = {"b": b} if blocked else {}

    cache: dict = {}  # shared IC symbolic + last factorization

    def ic_rung(shift: float, label: str):
        m = cache.get("m")
        if m is not None:
            # same matrix, same pattern — only the pivot shift changed
            m.refactor(shift=shift)
        else:
            m = ic.build(a, None, symbolic=cache.get("sym"), shift=shift, **ic_kw)
            cache["sym"] = m.symbolic
            cache["m"] = m
        m.name = label
        return m

    stages: list[FallbackStage] = []
    for family in (*order, diag.name):  # the backstop, unless already last
        if family == sb.name and groups:
            stages.append(FallbackStage(sb.stage, lambda: sb.build(a, groups, b=b), sb.name))
        elif family in ("bic0", "ic0"):
            stages.append(
                FallbackStage(ic.stage, lambda: ic_rung(0.0, ic.stage), ic.name)
            )
            for alpha in SHIFTS:
                label = f"{ic.stage.split()[0]}+shift{alpha:g}"
                stages.append(
                    FallbackStage(
                        label,
                        lambda shift=alpha * dbar, label=label: ic_rung(shift, label),
                        ic.name,
                    )
                )
        elif family == diag.name and not (stages and stages[-1].family == diag.name):
            stages.append(
                FallbackStage(diag.stage, lambda: diag.build(a, None), diag.name)
            )
    return stages


def default_ladder(
    a,
    contact_groups: list[np.ndarray] | None = None,
    *,
    b: int = 3,
) -> list[FallbackStage]:
    """The standard escalation ladder for a (possibly contact) system:
    the paper's robustness order, :func:`~repro.precond.families.ladder_families`
    — SB-BIC(0) (its most robust option) first when contact groups
    exist, then BIC(0) (scalar IC(0) when the dimension is not a
    multiple of *b*) and its shifted retries, then diagonal scaling (see
    :func:`build_ladder`)."""
    n_groups = len(contact_groups) if contact_groups else 0
    order = ladder_families(n_groups, a.shape[0] % b == 0)
    return build_ladder(a, contact_groups, order, b=b)


_ESCALATABLE = frozenset(
    {
        FailureReason.BREAKDOWN_INDEFINITE,
        FailureReason.NAN_DETECTED,
        FailureReason.STAGNATION,
        FailureReason.MAX_ITER,
    }
)


class ResilientSolver:
    """CG with a preconditioner escalation ladder.

    Parameters
    ----------
    a:
        The SPD system matrix (any form :func:`cg_solve` accepts).
    ladder:
        Ordered :class:`FallbackStage` list, most powerful first (see
        :func:`default_ladder`).
    stagnation_window / time_budget:
        Forwarded to each :func:`cg_solve` attempt; the time budget is
        shared across the whole chain (remaining time shrinks per stage).
    on_stage_result:
        Optional ``callback(stage, CGResult)`` invoked with the
        :class:`FallbackStage` after every attempted rung, converged or
        not — the policy layer's outcome recorder hangs off this.  The
        callback owns the result object it is handed; mutating
        ``result.x`` cannot corrupt the chain's warm-restart vector (it
        is copied on capture).

    The full detection / escalation / recovery trail is appended to
    :attr:`report` (a :class:`SolveReport`), which is also attached to
    the returned :class:`CGResult` as ``result.report``.

    A stage whose factorization had to nudge singular pivots is treated
    as ``SETUP_PIVOT_FAILURE`` and skipped unless it is the last rung — a
    nudged selective block means the "exact" in-block LU is fiction and
    the solve would limp or break; the last rung is solved with anyway.
    """

    def __init__(
        self,
        a,
        ladder: list[FallbackStage],
        *,
        eps: float = 1e-8,
        max_iter: int | None = None,
        stagnation_window: int = 50,
        time_budget: float | None = None,
        report: SolveReport | None = None,
        on_stage_result: Callable[[FallbackStage, CGResult], None] | None = None,
    ) -> None:
        if not ladder:
            raise ValueError("fallback ladder must have at least one stage")
        self.a = a
        self.ladder = list(ladder)
        self.eps = eps
        self.max_iter = max_iter
        self.stagnation_window = stagnation_window
        self.time_budget = time_budget
        self.report = report if report is not None else SolveReport()
        self.on_stage_result = on_stage_result

    # ------------------------------------------------------------------

    def _build_stage(self, stage: FallbackStage, is_last: bool):
        """Build a stage's preconditioner; None means escalate past it."""
        try:
            with warnings.catch_warnings():
                # nudges are escalated (or knowingly accepted) here, so the
                # factorization's own warning would be noise
                warnings.simplefilter("ignore", PivotNudgeWarning)
                with obs_span("fallback_setup", stage=stage.name):
                    m = stage.build()
        except (np.linalg.LinAlgError, ValueError, FloatingPointError) as exc:
            self.report.record(
                "detect",
                stage.name,
                FailureReason.SETUP_PIVOT_FAILURE,
                detail=f"setup raised {type(exc).__name__}: {exc}",
            )
            return None
        nudges = int(getattr(m, "breakdown_count", 0))
        if nudges and not is_last:
            sizes = getattr(m, "nudged_block_sizes", [])
            self.report.record(
                "detect",
                stage.name,
                FailureReason.SETUP_PIVOT_FAILURE,
                detail=f"{nudges} pivot(s) nudged (block sizes {sorted(set(sizes))})",
                pivot_nudges=nudges,
            )
            return None
        return m

    def solve(self, b: np.ndarray, x0: np.ndarray | None = None) -> CGResult:
        """Solve ``A x = b``, escalating down the ladder on failure.

        Each failed stage's best iterate seeds the next stage (warm
        restart), so progress made before a breakdown is kept."""
        b = check_finite_vector(b, "b")
        t_start = time.perf_counter()
        best_x = None if x0 is None else np.asarray(x0, dtype=np.float64).copy()
        best_relres = np.inf
        last: CGResult | None = None
        failed_before = False

        for i, stage in enumerate(self.ladder):
            is_last = i == len(self.ladder) - 1
            remaining = None
            if self.time_budget is not None:
                remaining = self.time_budget - (time.perf_counter() - t_start)
                if remaining <= 0:
                    self.report.record(
                        "detect",
                        stage.name,
                        FailureReason.TIME_BUDGET,
                        detail="budget exhausted before stage start",
                    )
                    break
            m = self._build_stage(stage, is_last)
            if m is None:
                if not is_last:
                    nxt = self.ladder[i + 1].name
                    self.report.record(
                        "escalate", stage.name, detail=f"setup failed -> {nxt}"
                    )
                    metric_inc("fallback.escalations", stage=stage.name)
                failed_before = True
                continue

            self.report.record(
                "info",
                stage.name,
                detail="attempting solve"
                + (" (warm restart from best iterate)" if best_x is not None else ""),
            )
            res = cg_solve(
                self.a,
                b,
                m,
                eps=self.eps,
                max_iter=self.max_iter,
                x0=best_x,
                stagnation_window=self.stagnation_window,
                time_budget=remaining,
                report=self.report,
            )
            last = res
            if res.converged:
                if self.on_stage_result is not None:
                    self.on_stage_result(stage, res)
                if failed_before:
                    self.report.record(
                        "recover",
                        stage.name,
                        iteration=res.iterations,
                        detail=f"converged to {res.relative_residual:.3e} "
                        "after fallback",
                    )
                    metric_inc("fallback.recoveries", stage=stage.name)
                res.report = self.report
                return res

            # keep the best finite iterate for the next rung's warm start.
            # Copied, not aliased: ``res.x`` travels out of this method on
            # the returned CGResult and through on_stage_result — a caller
            # mutating a failed rung's result must not silently corrupt
            # the next rung's restart vector.
            if np.isfinite(res.x).all() and np.isfinite(res.relative_residual):
                if res.relative_residual < best_relres:
                    best_relres = res.relative_residual
                    best_x = res.x.copy()
            # the hook fires only after the capture above so a callback
            # mutating the result cannot reach the copied restart vector
            if self.on_stage_result is not None:
                self.on_stage_result(stage, res)
            # release the superseded rung's numeric arrays before the next
            # rung builds its own — otherwise the largest factorization of
            # the ladder stays alive for the whole escalation, and across
            # ALM retries that head-room compounds (the default_ladder's
            # shared BIC cache is exempt by design: it is refactored in
            # place, never duplicated)
            m = None  # noqa: F841
            failed_before = True
            if res.reason is FailureReason.TIME_BUDGET:
                break
            if res.reason in _ESCALATABLE and not is_last:
                self.report.record(
                    "escalate",
                    stage.name,
                    res.reason,
                    iteration=res.iterations,
                    detail=f"-> {self.ladder[i + 1].name}",
                )
                metric_inc("fallback.escalations", stage=stage.name)

        if last is None:
            # no stage produced a solve (all setups failed, or the budget
            # ran out first); return the best we have, tagged with the
            # most recent detection
            detections = self.report.detections()
            reason = detections[-1].reason if detections else None
            last = CGResult(
                x=best_x if best_x is not None else np.zeros(b.size),
                iterations=0,
                converged=False,
                relative_residual=best_relres,
                solve_seconds=time.perf_counter() - t_start,
                reason=reason if reason is not None else FailureReason.SETUP_PIVOT_FAILURE,
            )
        last.report = self.report
        return last
