"""The policy itself: probe -> decision -> escalation ladder.

:class:`SolverPolicy` replaces the static rung order of
:func:`repro.resilience.resilient.default_ladder` with a ranked one,
while keeping the same :class:`~repro.resilience.resilient.FallbackStage`
surface — :class:`~repro.resilience.resilient.ResilientSolver` and the
ALM driver run a policy-built ladder unchanged, and every robustness
property of the chain (escalation, warm restart, the Diagonal backstop)
is preserved.  The policy only chooses which rung goes *first* and how
the retry schedule behind it looks; it never removes the ladder.

Three modes:

- ``static`` — the paper's fixed order (SB-BIC(0) -> BIC(0) -> shifted
  -> Diagonal), probes skipped.  The control arm.
- ``cost`` — rank rungs by the cost model's predicted seconds
  (:func:`repro.policy.cost.candidate_costs`) from a cheap probe.
- ``learned`` — lead with the best *recorded* family for the problem's
  fingerprint (:class:`repro.policy.history.PolicyHistory`) once the
  cost ranking's own leader has a record there too; until then (cold
  classes, or a history that has only ever seen one family) the cost
  ranking stands.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.policy.cost import CandidateCost, applicable_families, candidate_costs
from repro.policy.history import PolicyHistory
from repro.policy.probes import ProblemProbe, probe_problem
from repro.precond.families import family_of_stage
from repro.resilience.resilient import FallbackStage, build_ladder

__all__ = [
    "POLICY_MODES",
    "PolicyDecision",
    "SolverPolicy",
    "family_of_stage",
]

POLICY_MODES = ("static", "cost", "learned")

PROBE_CACHE_SIZE = 256
"""Probes a policy keeps (least recently used goes first).  A serving
process sees one key per distinct operator — every new penalty is one —
for as long as it lives; a probe is ~100 bytes and a few matvecs to
redo, so the bound only has to exceed the working set of live traffic."""


@dataclass
class PolicyDecision:
    """Everything one ``decide()`` call settled, with its evidence."""

    mode: str
    order: tuple[str, ...]
    """Ladder-leading family order, strongest-candidate first."""
    shifts: tuple[float, ...]
    ncolors: int
    checkpoint_interval: int
    """Suggested iterations between journal checkpoints for long solves,
    scaled to the predicted iteration count of the chosen rung."""
    probe: ProblemProbe | None
    costs: list[CandidateCost] = field(default_factory=list)
    source: str = ""
    """Human-readable provenance: which signal picked the leader."""

    @property
    def fingerprint(self) -> str | None:
        return self.probe.fingerprint() if self.probe is not None else None

    def cost_of(self, family: str) -> CandidateCost | None:
        """What the cost model predicted for *family* (None when the
        decision priced nothing, as in static mode)."""
        return next((c for c in self.costs if c.family == family), None)

    def explain(self) -> str:
        """Multi-line account of the decision for ``repro policy explain``."""
        lines = [f"policy mode: {self.mode}", f"decided by: {self.source}"]
        if self.probe is not None:
            p = self.probe
            lines += [
                f"fingerprint: {p.fingerprint()}",
                f"probe: ndof={p.ndof} nnz={p.nnz} groups={p.n_groups} "
                f"(max {p.max_group} nodes) penalty_ratio={p.penalty_ratio:.3g} "
                f"kappa~{p.kappa_scaled:.3g} [{p.probe_seconds * 1e3:.1f} ms]",
            ]
        if self.costs:
            header = f"{'family':<8} {'setup':>10} {'per-iter':>10} {'iters':>6} {'risk':>5} {'total':>10}"
            lines += ["predicted costs (modeled-machine seconds, ranking only):", "  " + header]
            for c in self.costs:
                lines.append(
                    f"  {c.family:<8} {c.setup_seconds:>10.3e} "
                    f"{c.per_iter_seconds:>10.3e} {c.predicted_iterations:>6d} "
                    f"{c.risk:>5.2f} {c.predicted_seconds:>10.3e}"
                )
        lines += [
            f"ladder order: {' -> '.join(self.order)}",
            f"shift schedule: {self.shifts}",
            f"ncolors: {self.ncolors}",
            f"checkpoint interval: every {self.checkpoint_interval} iterations",
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        lead = self.cost_of(self.order[0])
        return {
            "mode": self.mode,
            "order": list(self.order),
            "shifts": list(self.shifts),
            "ncolors": self.ncolors,
            "checkpoint_interval": self.checkpoint_interval,
            "fingerprint": self.fingerprint,
            "source": self.source,
            "predicted_iterations": lead.predicted_iterations if lead else None,
            "predicted_seconds": lead.predicted_seconds if lead else None,
        }


class SolverPolicy:
    """Choose how to solve a problem before paying for a preconditioner.

    Thread-compatible with the serve session's locking discipline: the
    probe cache is keyed by the caller's structure key and bounded
    (:data:`PROBE_CACHE_SIZE`, LRU), and the underlying
    :class:`PolicyHistory` is itself thread-safe.

    Parameters
    ----------
    mode:
        ``static`` / ``cost`` / ``learned`` (see module docstring).
    history:
        Shared outcome store; required for ``learned`` to ever deviate
        from the cost ranking (a fresh one is created if omitted).
    """

    def __init__(
        self,
        mode: str = "cost",
        *,
        history: PolicyHistory | None = None,
        eps: float = 1e-8,
        lanczos_iters: int = 16,
        shifts: tuple[float, ...] = (0.01, 0.1),
    ) -> None:
        if mode not in POLICY_MODES:
            raise ValueError(f"unknown policy mode {mode!r}; expected one of {POLICY_MODES}")
        self.mode = mode
        self.history = history if history is not None else PolicyHistory()
        self.eps = eps
        self.lanczos_iters = lanczos_iters
        self.shifts = tuple(shifts)
        self._probe_cache: OrderedDict[Any, ProblemProbe] = OrderedDict()
        self._probe_cache_lock = threading.Lock()

    # -- probing -----------------------------------------------------------

    def probe(
        self,
        a,
        contact_groups: list[np.ndarray] | None = None,
        *,
        cache_key: Any = None,
    ) -> ProblemProbe:
        if cache_key is None:
            return probe_problem(a, contact_groups, lanczos_iters=self.lanczos_iters)
        with self._probe_cache_lock:
            p = self._probe_cache.get(cache_key)
            if p is not None:
                self._probe_cache.move_to_end(cache_key)
                return p
        p = probe_problem(a, contact_groups, lanczos_iters=self.lanczos_iters)
        with self._probe_cache_lock:
            self._probe_cache[cache_key] = p
            while len(self._probe_cache) > PROBE_CACHE_SIZE:
                self._probe_cache.popitem(last=False)
        return p

    # -- deciding ----------------------------------------------------------

    def decide(
        self,
        a,
        contact_groups: list[np.ndarray] | None = None,
        *,
        cache_key: Any = None,
    ) -> PolicyDecision:
        """Rank the ladder for one problem; cheap when the probe is cached."""
        t0 = time.perf_counter()
        if self.mode == "static":
            decision = self._decide_static(a, contact_groups)
        else:
            probe = self.probe(a, contact_groups, cache_key=cache_key)
            costs = candidate_costs(probe, eps=self.eps)
            order = tuple(c.family for c in costs)
            source = "cost model ranking"
            if self.mode == "learned":
                order, source = self._learned_order(order, probe.fingerprint())
            lead_iters = next(
                c.predicted_iterations for c in costs if c.family == order[0]
            )
            decision = PolicyDecision(
                mode=self.mode,
                order=order,
                shifts=self.shifts,
                ncolors=0,
                checkpoint_interval=max(50, lead_iters // 4),
                probe=probe,
                costs=costs,
                source=source,
            )
        obs.record_span(
            "policy.decide",
            time.perf_counter() - t0,
            mode=self.mode,
            order="->".join(decision.order),
            fingerprint=decision.fingerprint,
            source=decision.source,
        )
        return decision

    def _learned_order(
        self, order: tuple[str, ...], fingerprint: str
    ) -> tuple[tuple[str, ...], str]:
        """Promote the best recorded family — when that is a comparison.

        Serving records only the family it led with, so a class's history
        can hold a single family for ever (a first choice, or a file
        persisted under an older cost model).  Such a record says how
        long that family took, not that it beats the cost model's leader;
        it displaces the leader only once the leader has been measured on
        this fingerprint too.
        """
        recorded = self.history.stats_for(fingerprint)
        if not recorded:
            return order, "cost model ranking (no history for this fingerprint)"
        if order[0] not in recorded:
            return order, (
                f"cost model ranking (history for {fingerprint} has never "
                f"measured its leader {order[0]})"
            )
        best = self.history.best(fingerprint)
        if best not in order:
            return order, f"cost model ranking (recorded best {best} not applicable)"
        return (best, *[f for f in order if f != best]), (
            f"recorded history for {fingerprint} (cost model for the tail)"
        )

    def _decide_static(self, a, contact_groups) -> PolicyDecision:
        a = sp.csr_matrix(a)
        blocked = a.shape[0] % 3 == 0
        order = []
        if contact_groups and blocked:
            order.append("sbbic0")
        order.append("bic0" if blocked else "ic0")
        order.append("diag")
        return PolicyDecision(
            mode="static",
            order=tuple(order),
            shifts=self.shifts,
            ncolors=0,
            checkpoint_interval=250,
            probe=None,
            source="fixed paper ladder (no probe)",
        )

    # -- ladder construction ----------------------------------------------

    def ladder(
        self,
        a,
        contact_groups: list[np.ndarray] | None = None,
        *,
        decision: PolicyDecision | None = None,
        cache_key: Any = None,
        b: int = 3,
    ) -> tuple[list[FallbackStage], PolicyDecision]:
        """Build a ResilientSolver ladder in the decided order.

        :func:`~repro.resilience.resilient.build_ladder` with the
        decision's order, shift schedule and color count — so the shared
        IC symbolic cache and the Diagonal rung that is always last (no
        decision can remove the unbreakable backstop) are those of
        :func:`~repro.resilience.resilient.default_ladder`.
        """
        if decision is None:
            decision = self.decide(a, contact_groups, cache_key=cache_key)
        stages = build_ladder(
            a, contact_groups, decision.order,
            b=b, shifts=decision.shifts, ncolors=decision.ncolors,
        )
        return stages, decision

    # -- learning ----------------------------------------------------------

    def record_outcome(
        self,
        decision: PolicyDecision,
        stage_name: str,
        *,
        seconds: float,
        converged: bool,
        iterations: int = 0,
    ) -> None:
        """Fold one attempted rung's measured outcome into history.

        Safe to hang directly off ``ResilientSolver(on_stage_result=...)``
        — stage names map back to families via :func:`family_of_stage`,
        and decisions made without a probe (static mode) are ignored.
        """
        fp = decision.fingerprint
        family = family_of_stage(stage_name)
        if fp is None or family is None:
            return
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
            stage=stage_name,
            converged=converged,
            iterations=iterations,
            **predicted,
        )
