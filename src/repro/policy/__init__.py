"""Cost-model-driven solver policy: probe, predict, decide.

The paper fixes one escalation ladder for every problem; this package
chooses the ladder *per problem* from the operator itself:

1. **Probes** (:mod:`repro.policy.probes`) — cheap measured facts:
   sparsity, contact-group census, penalty magnitude read off the
   diagonal, a few-iteration Lanczos conditioning estimate.
2. **Cost model** (:mod:`repro.policy.cost`) — perfmodel-priced
   setup/per-iteration predictions for each family the problem admits
   (:func:`repro.precond.families.ladder_families`), combined with CG
   iteration theory and Table 2-shaped breakdown risk.

:class:`~repro.policy.ladder.SolverPolicy` folds these into a ranked
:class:`~repro.resilience.resilient.FallbackStage` ladder built by
:func:`~repro.resilience.resilient.build_ladder` (with its Diagonal
backstop), so the resilient solver and the serve session consume policy
decisions unchanged.  What each decision's solves cost is tallied per
probe fingerprint (:mod:`repro.policy.history`) for the serve census;
no decision reads the tally.
"""

from repro.policy.cost import CandidateCost, candidate_costs
from repro.policy.history import OutcomeStats, PolicyHistory
from repro.policy.ladder import PolicyDecision, SolverPolicy
from repro.policy.probes import ProblemProbe, probe_problem

__all__ = [
    "CandidateCost",
    "OutcomeStats",
    "PolicyDecision",
    "PolicyHistory",
    "ProblemProbe",
    "SolverPolicy",
    "candidate_costs",
    "probe_problem",
]
