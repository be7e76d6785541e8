"""Candidate pricing: probe + perfmodel -> predicted cost per family.

For each preconditioner family the policy could lead with, predict

    total = setup + risk * iterations * per_iteration

with both cost terms in **one unit**: a *matvec-shaped pass* — one sweep
of 2 flops over the ``probe.nnz`` stored entries — priced through the
machine model (:func:`repro.perfmodel.hybrid.estimate_iteration_time`).
The model's seconds are the Earth Simulator's, not this host's; that is
harmless for a ranking only as long as every term of the sum is on the
same scale, which is why set-up is counted in passes too instead of
being priced on a different execution unit.

- **per-iteration time** prices a synthetic operation census (matvec +
  BLAS-1 + the phases of the family row's ``census``: substitution
  passes, in-block solves, scaling; built from the probe's ``nnz`` /
  ``ndof`` / group census).
- **set-up time** is the family row's ``setup_passes`` matvec-shaped
  passes: the symbolic and numeric phases of a cold build, *measured* in
  units of one CSR matvec of the same operator (provenance at
  :data:`~repro.precond.families.FAMILY_TABLE`).
- **iteration count** is CG theory, ``~ 0.5 sqrt(kappa_eff) ln(2/eps)``,
  with a per-family effective condition number shaped by the paper's
  Table 2 / Appendix A: IC-type preconditioning compresses the spectrum
  by a family factor (``kappa_divisor``), and *selective blocking*
  (``penalty_free_kappa``) additionally removes the penalty-induced
  part of the conditioning (the inter-zone ``lambda`` rows sit inside
  exactly-solved blocks), so its ``kappa_eff`` is that of the
  penalty-free operator — a function of the mesh size, not of
  ``lambda``.  Diagonal scaling keeps the probe's kappa as-is (the probe
  already measured the Jacobi-scaled operator).
- **risk** inflates families that Table 2 shows failing outright at
  high penalty (scalar IC collapses first, BIC(0) later, SB-BIC(0)
  survives to ``1e10``; the row's ``risk_knee``): a failing first rung
  costs its whole setup and iteration budget before the ladder
  escalates past it.

The ranking is a function of the operator alone (probe and tolerance),
so the same request is decided the same way on every run and replay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perfmodel.hybrid import estimate_iteration_time
from repro.perfmodel.kernels import SolverOpCensus, VectorWork
from repro.perfmodel.machines import EARTH_SIMULATOR
from repro.policy.probes import ProblemProbe
from repro.precond.families import FAMILY_TABLE, Family, ladder_families

__all__ = ["CandidateCost", "candidate_costs"]

# Jacobi-scaled kappa of the *penalty-free* operator per nodes^(2/3) (the
# h^-2 law of a 3-D second-order elliptic problem).  SB-BIC(0) iterates
# like BIC(0) on the penalty-free problem at every lambda (Appendix A;
# here 26/31, 67/66, 85/78, 48/40, 72/78, 108/93 SB-BIC(0) at 1e6 vs
# BIC(0) at lambda=1, 396-6.6k DOF), and those counts imply 6.6-16.4
# through the iteration formula below.  kappa / penalty_ratio is not a
# substitute: the probe's 16-step Lanczos kappa saturates (4.5e4 from
# lambda=1e6 to 1e8 on block 0.8) while penalty_ratio keeps growing, so
# the quotient falls below 1 on every contact problem.
_PENALTY_FREE_KAPPA = 10.0
_NPE = 8  # the census spreads every loop over one node's PEs


@dataclass(frozen=True)
class CandidateCost:
    """Predicted cost of leading the ladder with one family."""

    family: str
    setup_seconds: float
    per_iter_seconds: float
    predicted_iterations: int
    risk: float
    """Breakdown-risk inflation (1.0 = no elevated risk)."""

    @property
    def predicted_seconds(self) -> float:
        return self.setup_seconds + (
            self.risk * self.predicted_iterations * self.per_iter_seconds
        )


def _matvec_pass(probe: ProblemProbe) -> VectorWork:
    """One sweep of 2 flops over the stored entries — the unit both
    set-up and iterations are priced in."""
    return VectorWork(np.full(_NPE, probe.nnz / _NPE, dtype=np.float64), 2.0)


def _iteration_phases(probe: ProblemProbe, family: Family) -> list[VectorWork]:
    """Synthetic census of one CG iteration, one node."""
    phases = [
        _matvec_pass(probe),
        # BLAS-1: 3 dots + 3 daxpy over ndof
        VectorWork(np.full(6 * _NPE, probe.ndof / _NPE, dtype=np.float64), 2.0),
    ]
    if "substitution" in family.census:
        # forward + backward substitution over the lower half
        phases.append(
            VectorWork(
                np.full(2 * _NPE, 0.5 * probe.nnz / _NPE, dtype=np.float64), 2.0
            )
        )
    if "block_solves" in family.census and probe.n_groups:
        # exact in-block solves: ~2 s flops per group DOF per pass
        mean_block = 3.0 * probe.group_dofs / (3.0 * probe.n_groups)
        phases.append(
            VectorWork(
                np.full(2 * _NPE, probe.group_dofs / _NPE, dtype=np.float64),
                2.0 * mean_block,
            )
        )
    if "scaling" in family.census:
        phases.append(
            VectorWork(np.full(_NPE, probe.ndof / _NPE, dtype=np.float64), 1.0)
        )
    return phases


def _seconds(probe: ProblemProbe, phases: list[VectorWork]) -> float:
    census = SolverOpCensus(ndof_node=probe.ndof, pe_per_node=_NPE, phases=phases)
    return estimate_iteration_time(census, EARTH_SIMULATOR, "hybrid", 1).total_seconds


def _kappa_eff(probe: ProblemProbe, family: Family) -> float:
    kappa = max(probe.kappa_scaled, 1.0)
    if family.penalty_free_kappa:
        # selective blocking absorbs the penalty-induced conditioning:
        # what is left is the penalty-free operator's, set by mesh size
        # (and never more than BIC(0) faces: it only enlarges the blocks)
        kappa = min(kappa, _PENALTY_FREE_KAPPA * (probe.ndof / 3.0) ** (2.0 / 3.0))
    return max(kappa / family.kappa_divisor, 1.0)


def _risk(probe: ProblemProbe, family: Family) -> float:
    if family.risk_knee is None:
        return 1.0
    return float(min(1.0 + probe.penalty_ratio / family.risk_knee, 10.0))


def candidate_costs(
    probe: ProblemProbe,
    *,
    eps: float = 1e-8,
    families: tuple[str, ...] | None = None,
) -> list[CandidateCost]:
    """Price every family the problem admits
    (:func:`~repro.precond.families.ladder_families`, or *families*);
    cheapest predicted total first."""
    fams = families if families is not None else ladder_families(
        probe.n_groups, probe.block_ok
    )
    log_term = float(np.log(2.0 / eps))
    pass_seconds = _seconds(probe, [_matvec_pass(probe)])
    out = []
    for family in (FAMILY_TABLE[name] for name in fams):
        iters = max(int(np.ceil(0.5 * np.sqrt(_kappa_eff(probe, family)) * log_term)), 3)
        out.append(
            CandidateCost(
                family=family.name,
                setup_seconds=sum(family.setup_passes) * pass_seconds,
                per_iter_seconds=_seconds(probe, _iteration_phases(probe, family)),
                predicted_iterations=iters,
                risk=_risk(probe, family),
            )
        )
    out.sort(key=lambda c: c.predicted_seconds)
    return out
