"""Solver policy: probe, decide, tally.

The paper fixes one escalation ladder for every problem; this package
builds it per problem from the operator itself:

1. **Probes** (:mod:`repro.policy.probes`) — cheap measured facts read
   in one pass over the operator: sparsity, contact-group census, the
   penalty magnitude read off the diagonal.
2. **Decision** (:mod:`repro.policy.ladder`) — the families the problem
   admits in the paper's robustness order
   (:func:`repro.precond.families.ladder_families`), with Diagonal
   scaling first on an operator that shows almost no penalty.

:class:`~repro.policy.ladder.SolverPolicy` turns the decision into a
:class:`~repro.resilience.resilient.FallbackStage` ladder built by
:func:`~repro.resilience.resilient.build_ladder` (with its Diagonal
backstop), so the resilient solver and the serve session consume policy
decisions unchanged.  What each decision's solves cost is tallied per
probe fingerprint (:mod:`repro.policy.history`) for the serve census;
no decision reads the tally.
"""

from repro.policy.history import OutcomeStats, PolicyHistory
from repro.policy.ladder import PolicyDecision, SolverPolicy
from repro.policy.probes import ProblemProbe, probe_problem

__all__ = [
    "OutcomeStats",
    "PolicyDecision",
    "PolicyHistory",
    "ProblemProbe",
    "SolverPolicy",
    "probe_problem",
]
