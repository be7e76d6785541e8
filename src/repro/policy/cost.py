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
  substitution passes + in-block solves + BLAS-1, built from the probe's
  ``nnz`` / ``ndof`` / group census).
- **set-up time** is ``SETUP_PASSES[family]`` matvec-shaped passes: the
  symbolic and numeric phases of a cold build, *measured* in units of
  one CSR matvec of the same operator (provenance at the table).
- **iteration count** is CG theory, ``~ 0.5 sqrt(kappa_eff) ln(2/eps)``,
  with a per-family effective condition number shaped by the paper's
  Table 2 / Appendix A: IC-type preconditioning compresses the spectrum
  by a family factor, and *selective blocking* additionally removes the
  penalty-induced part of the conditioning (the inter-zone ``lambda``
  rows sit inside exactly-solved blocks), so its ``kappa_eff`` is that
  of the penalty-free operator — a function of the mesh size, not of
  ``lambda``.  Diagonal scaling keeps the probe's kappa as-is (the probe
  already measured the Jacobi-scaled operator).
- **risk** inflates families that Table 2 shows failing outright at
  high penalty (scalar IC collapses first, BIC(0) later, SB-BIC(0)
  survives to ``1e10``): a failing first rung costs its whole setup and
  iteration budget before the ladder escalates past it.

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
from repro.precond.families import FAMILY_TABLE

__all__ = [
    "CandidateCost",
    "FAMILIES",
    "SETUP_PASSES",
    "applicable_families",
    "candidate_costs",
]

FAMILIES = tuple(f.name for f in reversed(FAMILY_TABLE.values()) if f.ranked)
"""Ladder-leading preconditioner families, strongest first.  The names
are the family table's, like the serve protocol's ``precond`` values, so
policy decisions drop straight into
:class:`~repro.serve.protocol.SolveRequest`."""

SETUP_PASSES = {
    "sbbic0": {"symbolic": 200, "numeric": 45},
    "bic0": {"symbolic": 185, "numeric": 40},
    "ic0": {"symbolic": 430, "numeric": 28},
    "diag": {"symbolic": 0, "numeric": 3},
}
"""Cold set-up cost per family and phase, in matvec-shaped passes.

Measured, not derived: ``symbolic_seconds`` / ``numeric_seconds`` of the
built factor divided by the seconds of one CSR ``a @ x`` on the same
operator (best of 3 builds, one BLAS thread), on
block 0.8 / 1.0 / 1.5 and swjapan 1.0 / 1.5 / 2.0 at ``lambda = 1e6``
(2.2k-19.9k DOF); the table holds the medians.  Ranges seen: SB-BIC(0)
129-236 / 28-58, BIC(0) 125-214 / 26-48, scalar IC(0) 365-541 / 24-35,
Diagonal 0 / 1.9-4.8; the high ends are the block problems, whose
matvec — the unit — got up to 46 % cheaper when the assembly stopped
storing round-off zeros, the low ends swjapan 1.5 / 2.0.  The
set-up/iteration ratio the ranking depends on: SB-BIC(0) 49-93, BIC(0)
50-88, IC(0) 111-165, Diagonal 1.7-3.1 iterations per set-up across the
range.  The counts belong to this implementation's colour-batched
numpy factorization (numeric phase: update sweeps plus one gather, no
fold); re-measure them when the set-up path changes (DESIGN.md
section 15 has the table and ``benchmarks/test_bench_policy.py`` the 3x
host check).
"""

# spectrum compression of level-0 IC relative to plain Jacobi scaling —
# a Table 2-shaped prior (block form slightly stronger than scalar)
_IC_KAPPA_DIVISOR = {"ic0": 8.0, "bic0": 20.0, "sbbic0": 20.0}
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
# penalty_ratio beyond which a family's factorization starts to break
# down (Table 2: scalar IC first, BIC later, SB-BIC effectively never)
_RISK_KNEE = {"ic0": 1e5, "bic0": 1e7}
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


def applicable_families(n_groups: int, block_ok: bool) -> tuple[str, ...]:
    """Families that can be built for a problem with *n_groups* contact
    groups whose DOF count is (*block_ok*) or is not a multiple of 3,
    strongest first — the static order, and what the cost model prices."""
    fams = []
    if n_groups > 0 and block_ok:
        fams.append("sbbic0")
    fams.append("bic0" if block_ok else "ic0")
    fams.append("diag")
    return tuple(fams)


def _matvec_pass(probe: ProblemProbe) -> VectorWork:
    """One sweep of 2 flops over the stored entries — the unit both
    set-up and iterations are priced in."""
    return VectorWork(np.full(_NPE, probe.nnz / _NPE, dtype=np.float64), 2.0)


def _iteration_phases(probe: ProblemProbe, family: str) -> list[VectorWork]:
    """Synthetic census of one CG iteration, one node."""
    phases = [
        _matvec_pass(probe),
        # BLAS-1: 3 dots + 3 daxpy over ndof
        VectorWork(np.full(6 * _NPE, probe.ndof / _NPE, dtype=np.float64), 2.0),
    ]
    if family in ("ic0", "bic0", "sbbic0"):
        # forward + backward substitution over the lower half
        phases.append(
            VectorWork(
                np.full(2 * _NPE, 0.5 * probe.nnz / _NPE, dtype=np.float64), 2.0
            )
        )
    if family == "sbbic0" and probe.n_groups:
        # exact in-block solves: ~2 s flops per group DOF per pass
        mean_block = 3.0 * probe.group_dofs / (3.0 * probe.n_groups)
        phases.append(
            VectorWork(
                np.full(2 * _NPE, probe.group_dofs / _NPE, dtype=np.float64),
                2.0 * mean_block,
            )
        )
    if family == "diag":
        phases.append(
            VectorWork(np.full(_NPE, probe.ndof / _NPE, dtype=np.float64), 1.0)
        )
    return phases


def _seconds(probe: ProblemProbe, phases: list[VectorWork]) -> float:
    census = SolverOpCensus(ndof_node=probe.ndof, pe_per_node=_NPE, phases=phases)
    return estimate_iteration_time(census, EARTH_SIMULATOR, "hybrid", 1).total_seconds


def _kappa_eff(probe: ProblemProbe, family: str) -> float:
    kappa = max(probe.kappa_scaled, 1.0)
    if family == "diag":
        return kappa
    if family == "sbbic0":
        # selective blocking absorbs the penalty-induced conditioning:
        # what is left is the penalty-free operator's, set by mesh size
        # (and never more than BIC(0) faces: it only enlarges the blocks)
        kappa = min(kappa, _PENALTY_FREE_KAPPA * (probe.ndof / 3.0) ** (2.0 / 3.0))
    return max(kappa / _IC_KAPPA_DIVISOR[family], 1.0)


def _risk(probe: ProblemProbe, family: str) -> float:
    knee = _RISK_KNEE.get(family)
    if knee is None:
        return 1.0
    return float(min(1.0 + probe.penalty_ratio / knee, 10.0))


def candidate_costs(
    probe: ProblemProbe,
    *,
    eps: float = 1e-8,
    families: tuple[str, ...] | None = None,
) -> list[CandidateCost]:
    """Price every applicable family; cheapest predicted total first."""
    fams = families if families is not None else applicable_families(
        probe.n_groups, probe.block_ok
    )
    log_term = float(np.log(2.0 / eps))
    pass_seconds = _seconds(probe, [_matvec_pass(probe)])
    out = []
    for family in fams:
        iters = max(int(np.ceil(0.5 * np.sqrt(_kappa_eff(probe, family)) * log_term)), 3)
        out.append(
            CandidateCost(
                family=family,
                setup_seconds=sum(SETUP_PASSES[family].values()) * pass_seconds,
                per_iter_seconds=_seconds(probe, _iteration_phases(probe, family)),
                predicted_iterations=iters,
                risk=_risk(probe, family),
            )
        )
    out.sort(key=lambda c: c.predicted_seconds)
    return out
