"""The policy itself: probe -> decision -> escalation ladder.

:class:`SolverPolicy` leads with the families a problem admits in the
paper's robustness order (:func:`repro.precond.families.ladder_families`:
SB-BIC(0), then the level-0 IC rung, then Diagonal scaling — Table 2),
with one measured exception: an operator whose diagonal shows almost no
penalty (:data:`DIAG_FIRST_BELOW`) leads with Diagonal scaling, whose
free set-up wins there.  The ladder is built in that order with
:func:`repro.resilience.resilient.build_ladder` —
:class:`~repro.resilience.resilient.ResilientSolver` runs a
policy-built ladder like any other, and every robustness property of
the chain (escalation, warm restart, the Diagonal backstop) is
preserved.  The policy only chooses which rung goes *first*; it never
removes the ladder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.policy.history import PolicyHistory
from repro.policy.probes import ProblemProbe, probe_problem
from repro.precond.families import ladder_families
from repro.resilience.resilient import FallbackStage, build_ladder

__all__ = ["DIAG_FIRST_BELOW", "PolicyDecision", "SolverPolicy"]

DIAG_FIRST_BELOW = 30.0
"""Below this ``penalty_ratio`` (``diag_max / diag_median``) Diagonal
scaling leads the ladder.  Measured as cold set-up plus solve, best of
3, one BLAS thread, on block and swjapan at scales 1.0 and 1.5, with
and without contact groups: at ratios 1.6-11 (lambda = 1-10) Diagonal
takes 0.35-0.86x the table leader's time; at ~31 (lambda = 30) 0.8-1.2x
with contact groups and 0.7-0.85x without; at ~100 (lambda = 1e2)
1.3-2.6x with contact groups and 1.0-1.3x without.  With
the rule the first family is within 1.13x of the fastest admitted one
on all 48 rows at lambda = 1-1e10 (DESIGN.md section 15)."""


@dataclass(frozen=True)
class PolicyDecision:
    """Everything one ``decide()`` call settled, with its evidence."""

    order: tuple[str, ...]
    """Ladder-leading family order."""
    probe: ProblemProbe

    @property
    def fingerprint(self) -> str:
        return self.probe.fingerprint()

    @property
    def diag_first(self) -> bool:
        """Whether the low-penalty rule put Diagonal scaling first."""
        return self.probe.penalty_ratio < DIAG_FIRST_BELOW

    def explain(self) -> str:
        """Multi-line account of the decision for ``repro policy explain``."""
        p = self.probe
        rule = ("< {:g}: diag moved first" if self.diag_first
                else ">= {:g}: table order kept").format(DIAG_FIRST_BELOW)
        return "\n".join([
            f"fingerprint: {p.fingerprint()}",
            f"probe: ndof={p.ndof} nnz={p.nnz} groups={p.n_groups} "
            f"(max {p.max_group} nodes, {p.group_dofs} DOF) "
            f"diag median={p.diag_median:.3g} max={p.diag_max:.3g} "
            f"[{p.probe_seconds * 1e3:.1f} ms]",
            f"rule: penalty_ratio={p.penalty_ratio:.3g} {rule}",
            f"ladder order: {' -> '.join(self.order)}",
        ])


class SolverPolicy:
    """Choose how to solve a problem before paying for a preconditioner.

    Thread-compatible with the serve session's locking discipline: a
    decision reads only the operator it is given, and the outcome tally
    (:class:`PolicyHistory`) is itself thread-safe.

    *history* is the outcome tally :meth:`record_outcome` folds into (a
    fresh one is created if omitted); no decision reads it.
    """

    def __init__(self, *, history: PolicyHistory | None = None) -> None:
        self.history = history if history is not None else PolicyHistory()

    # -- probing -----------------------------------------------------------

    def probe(self, a, contact_groups: list[np.ndarray] | None = None) -> ProblemProbe:
        return probe_problem(a, contact_groups)

    # -- deciding ----------------------------------------------------------

    def decide(
        self, a, contact_groups: list[np.ndarray] | None = None
    ) -> PolicyDecision:
        """The ladder order for one problem: the family table's, with
        Diagonal scaling first below :data:`DIAG_FIRST_BELOW`."""
        t0 = time.perf_counter()
        probe = self.probe(a, contact_groups)
        order = ladder_families(probe.n_groups, probe.block_ok)
        if probe.penalty_ratio < DIAG_FIRST_BELOW:
            # the table's order always ends in its Diagonal backstop
            order = (order[-1], *order[:-1])
        decision = PolicyDecision(order=order, probe=probe)
        obs.record_span(
            "policy.decide",
            time.perf_counter() - t0,
            order="->".join(decision.order),
            fingerprint=decision.fingerprint,
        )
        return decision

    # -- ladder construction ----------------------------------------------

    def ladder(
        self,
        a,
        contact_groups: list[np.ndarray] | None = None,
        *,
        b: int = 3,
    ) -> tuple[list[FallbackStage], PolicyDecision]:
        """Decide, then build a ResilientSolver ladder in the decided order.

        :func:`~repro.resilience.resilient.build_ladder` with the
        decision's order — so the family rows' shift schedule, the shared
        IC factorization and the Diagonal rung that is always last (no decision can
        remove the unbreakable backstop) are those of every ladder.
        """
        decision = self.decide(a, contact_groups)
        return build_ladder(a, contact_groups, decision.order, b=b), decision

    # -- outcomes ----------------------------------------------------------

    def record_outcome(
        self,
        decision: PolicyDecision,
        family: str,
        *,
        seconds: float,
        converged: bool,
        iterations: int = 0,
        stage: str | None = None,
    ) -> None:
        """Tally one attempted rung of *family* and emit it as a
        ``policy.outcome`` span.

        Hung off ``ResilientSolver(on_stage_result=...)`` it takes the
        stage's own :attr:`~repro.resilience.resilient.FallbackStage.family`
        (a shifted retry counts toward its base family: the shift
        schedule is part of the rung the policy chose) and its label as
        *stage*; the span's ``stage`` defaults to the family name.
        """
        fp = decision.fingerprint
        self.history.record(
            fp, family, seconds=seconds, converged=converged, iterations=iterations
        )
        obs.record_span(
            "policy.outcome",
            seconds,
            fingerprint=fp,
            choice=family,
            stage=stage or family,
            converged=converged,
            iterations=iterations,
        )
