"""The policy itself: probe -> decision -> escalation ladder.

:class:`SolverPolicy` ranks the families a problem admits
(:func:`repro.precond.families.ladder_families`) by the cost model's
predicted seconds (:func:`repro.policy.cost.candidate_costs`) from a
cheap probe, and builds the ladder in that order with
:func:`repro.resilience.resilient.build_ladder` —
:class:`~repro.resilience.resilient.ResilientSolver` runs a
policy-built ladder like any other, and every robustness property of
the chain (escalation, warm restart, the Diagonal backstop) is
preserved.  The policy only chooses which rung goes *first* and how the
retry schedule behind it looks; it never removes the ladder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import obs
from repro.policy.cost import CandidateCost, candidate_costs
from repro.policy.history import PolicyHistory
from repro.policy.probes import ProblemProbe, probe_problem
from repro.resilience.resilient import FallbackStage, build_ladder
from repro.utils.lru import LRUCache

__all__ = ["PolicyDecision", "SolverPolicy"]

PROBE_CACHE_SIZE = 256
"""Probes a policy keeps (least recently used goes first).  A serving
process sees one key per distinct operator — every new penalty is one —
for as long as it lives; a probe is ~100 bytes and a few matvecs to
redo, so the bound only has to exceed the working set of live traffic."""


@dataclass
class PolicyDecision:
    """Everything one ``decide()`` call settled, with its evidence."""

    order: tuple[str, ...]
    """Ladder-leading family order, cheapest predicted first."""
    probe: ProblemProbe
    costs: list[CandidateCost]
    """The cost model's prediction for each family in :attr:`order`."""

    @property
    def fingerprint(self) -> str:
        return self.probe.fingerprint()

    def cost_of(self, family: str) -> CandidateCost | None:
        """What the cost model predicted for *family* (None for a family
        the problem does not admit)."""
        return next((c for c in self.costs if c.family == family), None)

    def explain(self) -> str:
        """Multi-line account of the decision for ``repro policy explain``."""
        p = self.probe
        lines = [
            f"fingerprint: {p.fingerprint()}",
            f"probe: ndof={p.ndof} nnz={p.nnz} groups={p.n_groups} "
            f"(max {p.max_group} nodes) penalty_ratio={p.penalty_ratio:.3g} "
            f"kappa~{p.kappa_scaled:.3g} [{p.probe_seconds * 1e3:.1f} ms]",
        ]
        header = f"{'family':<8} {'setup':>10} {'per-iter':>10} {'iters':>6} {'risk':>5} {'total':>10}"
        lines += ["predicted costs (modeled-machine seconds, ranking only):", "  " + header]
        for c in self.costs:
            lines.append(
                f"  {c.family:<8} {c.setup_seconds:>10.3e} "
                f"{c.per_iter_seconds:>10.3e} {c.predicted_iterations:>6d} "
                f"{c.risk:>5.2f} {c.predicted_seconds:>10.3e}"
            )
        lines.append(f"ladder order: {' -> '.join(self.order)}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        lead = self.cost_of(self.order[0])
        return {
            "order": list(self.order),
            "fingerprint": self.fingerprint,
            "predicted_iterations": lead.predicted_iterations,
            "predicted_seconds": lead.predicted_seconds,
        }


class SolverPolicy:
    """Choose how to solve a problem before paying for a preconditioner.

    Thread-compatible with the serve session's locking discipline: the
    probe cache is keyed by the caller's structure key and bounded
    (:data:`PROBE_CACHE_SIZE`, LRU), and the outcome tally
    (:class:`PolicyHistory`) is itself thread-safe.

    *history* is the outcome tally :meth:`record_outcome` folds into (a
    fresh one is created if omitted); no decision reads it.
    """

    def __init__(self, *, history: PolicyHistory | None = None) -> None:
        self.history = history if history is not None else PolicyHistory()
        self._probe_cache = LRUCache(PROBE_CACHE_SIZE)

    # -- probing -----------------------------------------------------------

    def probe(
        self,
        a,
        contact_groups: list[np.ndarray] | None = None,
        *,
        cache_key: Any = None,
    ) -> ProblemProbe:
        if cache_key is None:
            return probe_problem(a, contact_groups)
        p = self._probe_cache.get(cache_key)
        if p is None:
            p = probe_problem(a, contact_groups)
            self._probe_cache.put(cache_key, p)
        return p

    # -- deciding ----------------------------------------------------------

    def decide(
        self,
        a,
        contact_groups: list[np.ndarray] | None = None,
        *,
        cache_key: Any = None,
        eps: float = 1e-8,
    ) -> PolicyDecision:
        """Rank the ladder for one problem; cheap when the probe is cached.

        *eps* is the tolerance the solve will stop at: the cost model
        prices each family's iteration count at it."""
        t0 = time.perf_counter()
        probe = self.probe(a, contact_groups, cache_key=cache_key)
        costs = candidate_costs(probe, eps=eps)
        decision = PolicyDecision(
            order=tuple(c.family for c in costs), probe=probe, costs=costs
        )
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
        cache_key: Any = None,
        b: int = 3,
    ) -> tuple[list[FallbackStage], PolicyDecision]:
        """Decide, then build a ResilientSolver ladder in the decided order.

        :func:`~repro.resilience.resilient.build_ladder` with the
        decision's order — so the family rows' shift schedule, the shared
        IC factorization and the Diagonal rung that is always last (no decision can
        remove the unbreakable backstop) are those of every ladder.
        """
        decision = self.decide(a, contact_groups, cache_key=cache_key)
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
        ``policy.outcome`` span beside the cost model's prediction.

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
        # what the cost model said about this family, next to what happened
        cost = decision.cost_of(family)
        predicted = {} if cost is None else {
            "predicted_iterations": cost.predicted_iterations,
            "predicted_seconds": cost.predicted_seconds,
        }
        obs.record_span(
            "policy.outcome",
            seconds,
            fingerprint=fp,
            choice=family,
            stage=stage or family,
            converged=converged,
            iterations=iterations,
            **predicted,
        )
