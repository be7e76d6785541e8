"""The "robust and smooth convergence" claim, quantified.

The paper's abstract promises selective blocking gives "robust and
smooth convergence".  We profile the CG residual histories at a large
penalty: SB-BIC(0) should march down geometrically with few upticks,
while BIC(0)'s history on the same system stagnates in long plateaus —
the small eigenvalue cluster of M^-1 A (Appendix A) at work.
"""

from __future__ import annotations

from repro.experiments.common import ReproTable
from repro.experiments.workloads import block_problem, dof_summary
from repro.precond import FAMILY_TABLE
from repro.solvers.cg import cg_solve
from repro.solvers.history import analyze_history


def run(scale: float = 1.0, penalty: float = 1e8) -> ReproTable:
    prob = block_problem(scale, penalty=penalty)
    table = ReproTable(
        title=f"Convergence smoothness at lambda={penalty:g}",
        paper_reference="Abstract / section 6 ('robust and smooth convergence'); qualitative",
        columns=["precond", "iters", "oscillation_%", "plateau", "mean_red/iter"],
    )
    table.note(dof_summary(prob))

    profiles = {}
    for family in (FAMILY_TABLE[f] for f in ("diag", "bic0", "sbbic0")):
        name = family.stage
        m = family.build(prob.a, prob.groups)
        res = cg_solve(prob.a, prob.b, m, max_iter=30000)
        prof = analyze_history(res.history)
        profiles[name] = prof
        table.add_row(
            name,
            prof.iterations,
            round(100 * prof.oscillation_ratio, 1),
            prof.plateau_length,
            round(prof.mean_reduction, 4),
        )

    sb = profiles["SB-BIC(0)"]
    b0 = profiles["BIC(0)"]
    table.claim("SB-BIC(0) history is smooth", sb.is_smooth)
    table.claim(
        "SB-BIC(0) reduces the residual faster per iteration than BIC(0)",
        sb.mean_reduction < b0.mean_reduction,
    )
    table.claim(
        "SB-BIC(0) has no longer plateaus than BIC(0)",
        sb.plateau_length <= b0.plateau_length,
    )
    return table


if __name__ == "__main__":
    run().print()
