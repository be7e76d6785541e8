"""Cheap per-problem probes feeding the solver policy.

A probe is everything the policy may legally look at *before* paying for
a preconditioner: matrix size and sparsity, the contact-group census
(count, largest group, total group DOF — the selective-blocking cost
drivers), diagonal statistics (the penalty rows of the paper's ``lambda
u_i = lambda u_j`` MPC constraints dominate the diagonal, so
``diag_max / diag_median`` recovers the penalty magnitude without being
told it), and a few-iteration Lanczos estimate of the Jacobi-scaled
condition number (:func:`repro.analysis.eigen.lanczos_extremes`).

Probes cost a handful of matvecs — orders of magnitude less than one
wrong preconditioner choice at high penalty (Table 2: scalar IC(0)
needs 20x the iterations of SB-BIC(0) at ``lambda = 1e6`` and diverges
above it).

``fingerprint()`` buckets the probe logarithmically.  Two problems with
the same fingerprint share one row of the outcome tally
(:mod:`repro.policy.history`) and of ``obs.policy_table``: same size
class, same contact topology class, same penalty magnitude, same
conditioning class.  Coarse on purpose — a row should gather reruns and
small mesh changes, not one exact operator each.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.analysis.eigen import lanczos_extremes

__all__ = ["ProblemProbe", "probe_problem"]


def _log10_bucket(x: float) -> int:
    """Integer ``round(log10(x))`` bucket; 0 for non-positive input."""
    if x <= 0.0 or not np.isfinite(x):
        return 0
    return int(round(np.log10(x)))


@dataclass(frozen=True)
class ProblemProbe:
    """What the policy knows about a problem before choosing a solver."""

    ndof: int
    nnz: int
    block_ok: bool
    """True when ``ndof`` is a multiple of 3 (block rungs applicable)."""
    n_groups: int
    max_group: int
    """Largest contact group in *nodes* — the in-block dense-LU cost
    driver of SB-BIC(0) setup (cubic in block size)."""
    group_dofs: int
    diag_median: float
    diag_max: float
    penalty_ratio: float
    """``diag_max / diag_median`` — the penalty magnitude as seen by the
    matrix itself (~1 for penalty-free problems)."""
    kappa_scaled: float
    """Lanczos estimate of ``cond(D^{-1/2} A D^{-1/2})``."""
    probe_seconds: float

    def fingerprint(self) -> str:
        """Coarse log-bucketed identity of the problem's class."""
        return (
            f"v1:n{_log10_bucket(self.ndof)}"
            f":z{_log10_bucket(self.nnz)}"
            f":g{_log10_bucket(self.n_groups + 1)}"
            f":p{_log10_bucket(self.penalty_ratio)}"
            f":k{_log10_bucket(self.kappa_scaled)}"
        )


def probe_problem(
    a,
    contact_groups: list[np.ndarray] | None = None,
    *,
    lanczos_iters: int = 16,
    seed: int = 0,
) -> ProblemProbe:
    """Measure a :class:`ProblemProbe` from the assembled system."""
    t0 = time.perf_counter()
    a = sp.csr_matrix(a)
    ndof = int(a.shape[0])
    diag = np.abs(a.diagonal()).astype(np.float64)
    diag_median = float(np.median(diag)) or 1.0
    diag_max = float(diag.max()) if ndof else 1.0

    groups = list(contact_groups) if contact_groups else []
    group_nodes = [int(np.asarray(g).size) for g in groups]
    eig = lanczos_extremes(a, k=lanczos_iters, seed=seed)
    kappa = float(eig.kappa)
    if not np.isfinite(kappa) or kappa <= 0.0:
        kappa = 1e30  # an indefinite-looking probe: assume the worst

    probe = ProblemProbe(
        ndof=ndof,
        nnz=int(a.nnz),
        block_ok=ndof % 3 == 0,
        n_groups=len(groups),
        max_group=max(group_nodes, default=0),
        group_dofs=3 * sum(group_nodes),
        diag_median=diag_median,
        diag_max=diag_max,
        penalty_ratio=diag_max / diag_median,
        kappa_scaled=kappa,
        probe_seconds=time.perf_counter() - t0,
    )
    obs.record_span(
        "policy.probe", probe.probe_seconds,
        fingerprint=probe.fingerprint(), ndof=ndof, nnz=probe.nnz,
        n_groups=probe.n_groups, penalty_ratio=probe.penalty_ratio,
        kappa=probe.kappa_scaled,
    )
    return probe
