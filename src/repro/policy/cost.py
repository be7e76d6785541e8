"""Candidate pricing: probe + perfmodel -> predicted cost per family.

For each preconditioner family the policy could lead with, predict

    total = setup + risk * iterations * per_iteration

- **per-iteration time** prices a synthetic operation census (matvec +
  substitution passes + in-block solves + BLAS-1, built from the probe's
  ``nnz`` / ``ndof`` / group census) through the machine model
  (:func:`repro.perfmodel.hybrid.estimate_iteration_time`).  The
  absolute scale is the modeled machine's, not this host's — only the
  *ranking* matters, and recorded history (measured wall seconds on the
  real host) overrides it as traffic accumulates.
- **iteration count** is CG theory, ``~ 0.5 sqrt(kappa_eff) ln(2/eps)``,
  with a per-family effective condition number shaped by the paper's
  Table 2 / Appendix A: IC-type preconditioning compresses the spectrum
  by a family factor, and *selective blocking* additionally removes the
  penalty-induced part of the conditioning (the inter-zone ``lambda``
  rows sit inside exactly-solved blocks), so its ``kappa_eff`` is the
  penalty-free remainder.  Diagonal scaling keeps the probe's kappa
  as-is (the probe already measured the Jacobi-scaled operator).
- **risk** inflates families that Table 2 shows failing outright at
  high penalty (scalar IC collapses first, BIC(0) later, SB-BIC(0)
  survives to ``1e10``): a failing first rung costs its whole setup and
  iteration budget before the ladder escalates past it.

These priors only have to rank candidates sensibly on *cold* problems;
the learned mode replaces them with measured outcomes per fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perfmodel.hybrid import estimate_iteration_time
from repro.perfmodel.kernels import SolverOpCensus, VectorWork
from repro.perfmodel.machines import EARTH_SIMULATOR, MachineModel
from repro.policy.probes import ProblemProbe
from repro.precond.families import FAMILY_TABLE

__all__ = ["CandidateCost", "FAMILIES", "applicable_families", "candidate_costs"]

FAMILIES = tuple(f.name for f in reversed(FAMILY_TABLE.values()) if f.ranked)
"""Ladder-leading preconditioner families, strongest first.  The names
are the family table's, like the serve protocol's ``precond`` values, so
policy decisions drop straight into
:class:`~repro.serve.protocol.SolveRequest`."""

# spectrum compression of level-0 IC relative to plain Jacobi scaling —
# a Table 2-shaped prior (block form slightly stronger than scalar)
_IC_KAPPA_DIVISOR = {"ic0": 8.0, "bic0": 20.0, "sbbic0": 20.0}
# penalty_ratio beyond which a family's factorization starts to break
# down (Table 2: scalar IC first, BIC later, SB-BIC effectively never)
_RISK_KNEE = {"ic0": 1e5, "bic0": 1e7}


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


def applicable_families(probe: ProblemProbe) -> tuple[str, ...]:
    """Families the probe says can be built for this problem."""
    fams = []
    if probe.n_groups > 0 and probe.block_ok:
        fams.append("sbbic0")
    fams.append("bic0" if probe.block_ok else "ic0")
    fams.append("diag")
    return tuple(fams)


def _census(probe: ProblemProbe, family: str, npe: int = 8) -> SolverOpCensus:
    """Synthetic per-iteration census of one CG iteration, one node."""
    phases = [
        # block matvec: 2 flops per stored scalar entry
        VectorWork(np.full(npe, probe.nnz / npe, dtype=np.float64), 2.0),
        # BLAS-1: 3 dots + 3 daxpy over ndof
        VectorWork(np.full(6 * npe, probe.ndof / npe, dtype=np.float64), 2.0),
    ]
    if family in ("ic0", "bic0", "sbbic0"):
        # forward + backward substitution over the lower half
        phases.append(
            VectorWork(
                np.full(2 * npe, 0.5 * probe.nnz / npe, dtype=np.float64), 2.0
            )
        )
    if family == "sbbic0" and probe.n_groups:
        # exact in-block solves: ~2 s flops per group DOF per pass
        mean_block = 3.0 * probe.group_dofs / (3.0 * probe.n_groups)
        phases.append(
            VectorWork(
                np.full(2 * npe, probe.group_dofs / npe, dtype=np.float64),
                2.0 * mean_block,
            )
        )
    if family == "diag":
        phases.append(
            VectorWork(np.full(npe, probe.ndof / npe, dtype=np.float64), 1.0)
        )
    return SolverOpCensus(ndof_node=probe.ndof, pe_per_node=npe, phases=phases)


def _setup_flops(probe: ProblemProbe, family: str) -> float:
    if family == "diag":
        return float(probe.ndof)
    # ordering + pattern + numeric phases, ~linear in stored entries;
    # scalar IC pays more per-entry overhead than the blocked form
    flops = 40.0 * probe.nnz * (1.5 if family == "ic0" else 1.0)
    if family == "sbbic0" and probe.n_groups:
        # dense LU of each selective block: (2/3) s^3 with s = 3 nodes
        mean_dofs = probe.group_dofs / probe.n_groups
        flops += probe.n_groups * (2.0 / 3.0) * mean_dofs**3
    return flops


def _kappa_eff(probe: ProblemProbe, family: str) -> float:
    kappa = max(probe.kappa_scaled, 1.0)
    if family == "diag":
        return kappa
    divisor = _IC_KAPPA_DIVISOR[family]
    if family == "sbbic0":
        # selective blocking absorbs the penalty-induced conditioning:
        # what is left is the geometric remainder
        kappa = max(kappa / max(probe.penalty_ratio, 1.0), 1.0)
    return max(kappa / divisor, 1.0)


def _risk(probe: ProblemProbe, family: str) -> float:
    knee = _RISK_KNEE.get(family)
    if knee is None:
        return 1.0
    return float(min(1.0 + probe.penalty_ratio / knee, 10.0))


def candidate_costs(
    probe: ProblemProbe,
    *,
    eps: float = 1e-8,
    machine: MachineModel = EARTH_SIMULATOR,
    families: tuple[str, ...] | None = None,
) -> list[CandidateCost]:
    """Price every applicable family; cheapest predicted total first."""
    fams = families if families is not None else applicable_families(probe)
    log_term = float(np.log(2.0 / eps))
    out = []
    for family in fams:
        t = estimate_iteration_time(_census(probe, family), machine, "hybrid", 1)
        iters = max(int(np.ceil(0.5 * np.sqrt(_kappa_eff(probe, family)) * log_term)), 3)
        out.append(
            CandidateCost(
                family=family,
                setup_seconds=machine.pe.time_scalar(_setup_flops(probe, family)),
                per_iter_seconds=t.total_seconds,
                predicted_iterations=iters,
                risk=_risk(probe, family),
            )
        )
    out.sort(key=lambda c: c.predicted_seconds)
    return out
