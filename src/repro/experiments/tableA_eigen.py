"""Appendix A (Tables A.1-A.4): iterations and spectra of M^{-1} A.

Paper: for both the simple block model (A.1/A.2) and the Southwest Japan
model (A.3/A.4), BIC(0)'s smallest eigenvalue collapses like 1/lambda
(kappa ~ lambda), while BIC(1)/BIC(2)/SB-BIC(0) keep Emin, Emax and
kappa essentially constant over lambda in 1e2..1e10; SB-BIC(0) has a
slightly larger kappa than the deep-fill methods yet still converges in
lambda-independent iterations.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.eigen import preconditioned_spectrum
from repro.experiments.common import ReproTable
from repro.experiments.workloads import block_problem, swjapan_problem
from repro.precond import FAMILY_TABLE
from repro.solvers.cg import cg_solve


def run(model: str = "block", scale: float = 0.5, lambdas=(1e2, 1e6, 1e10), include_fill=True) -> ReproTable:
    ref = (
        "Tables A.1/A.2 (simple block, 83,664 DOF)"
        if model == "block"
        else "Tables A.3/A.4 (Southwest Japan, 81,585 DOF)"
    )
    table = ReproTable(
        title=f"Iterations and spectrum of M^-1 A vs lambda ({model} model)",
        paper_reference=ref + "; ours scaled down",
        columns=["precond", "lambda", "iters", "Emin", "Emax", "kappa"],
    )
    families = ("bic0", "bic1", "sbbic0") if include_fill else ("bic0", "sbbic0")
    kappas: dict[tuple[str, float], float] = {}
    iters: dict[tuple[str, float], int | None] = {}
    for lam in lambdas:
        prob = (
            block_problem(scale, penalty=lam)
            if model == "block"
            else swjapan_problem(scale, penalty=lam)
        )
        for family in (FAMILY_TABLE[f] for f in families):
            name = family.stage
            m = family.build(prob.a, prob.groups)
            res = cg_solve(prob.a, prob.b, m, max_iter=30000)
            s = preconditioned_spectrum(prob.a, m, dense_threshold=2500)
            kappas[(name, lam)] = s.kappa
            iters[(name, lam)] = res.iterations if res.converged else None
            table.add_row(
                name, lam,
                res.iterations if res.converged else f"No Conv. [{res.reason}]",
                float(s.emin), float(s.emax), float(s.kappa),
            )

    lam_lo, lam_hi = lambdas[0], lambdas[-1]
    table.claim(
        "BIC(0) kappa grows roughly like lambda",
        kappas[("BIC(0)", lam_hi)] > 1e3 * kappas[("BIC(0)", lam_lo)],
    )
    table.claim(
        "SB-BIC(0) kappa is lambda-independent",
        abs(np.log10(kappas[("SB-BIC(0)", lam_hi)] / kappas[("SB-BIC(0)", lam_lo)])) < 0.5,
    )
    if include_fill:
        table.claim(
            "BIC(1) kappa is lambda-independent",
            abs(np.log10(kappas[("BIC(1)", lam_hi)] / kappas[("BIC(1)", lam_lo)])) < 0.7,
        )
    sb_lo, sb_hi = iters[("SB-BIC(0)", lam_lo)], iters[("SB-BIC(0)", lam_hi)]
    table.claim(
        "SB-BIC(0) iterations lambda-independent",
        sb_lo is not None and sb_hi is not None and abs(sb_hi - sb_lo) <= max(3, 0.05 * sb_lo),
    )
    return table


if __name__ == "__main__":
    run("block").print()
    print()
    run("swjapan").print()
