"""Table 3: original vs contact-aware partitioning, 8 domains.

Paper (83,664 DOF, 8 PEs): with the ORIGINAL partitioning the contact
groups straddle domain boundaries and localized preconditioning loses
the penalty couplings — iterations explode (SB-BIC(0): 3498 at
lambda=1e6); the IMPROVED partitioning (groups kept whole + load
balancing, Fig. 8) brings them back near single-PE counts (166).
"""

from __future__ import annotations

from repro.experiments.common import ReproTable
from repro.experiments.workloads import block_problem, dof_summary
from repro.parallel import contact_aware_partition, partition_nodes_rcb, partition_quality
from repro.precond import FAMILY_TABLE, LocalizedPreconditioner
from repro.solvers.cg import cg_solve

PAPER = {
    ("BIC(0)", 1e2): (703, 489),
    ("BIC(0)", 1e6): (4825, 3477),
    ("BIC(1)", 1e2): (613, 123),
    ("BIC(1)", 1e6): (2701, 123),
    ("BIC(2)", 1e2): (610, 112),
    ("BIC(2)", 1e6): (2448, 112),
    ("SB-BIC(0)", 1e2): (655, 165),
    ("SB-BIC(0)", 1e6): (3498, 166),
}


def run(scale: float = 1.0, ndomains: int = 8, lambdas=(1e2, 1e6), include_fill=True) -> ReproTable:
    table = ReproTable(
        title=f"Localized preconditioning: ORIGINAL vs IMPROVED partitioning ({ndomains} domains)",
        paper_reference="Table 3 (83,664 DOF, 8 PEs; ours scaled down)",
        columns=[
            "precond", "lambda", "orig_iters", "impr_iters",
            "paper_orig", "paper_impr", "cut_groups_orig",
        ],
    )
    families = ("bic0", "bic1", "bic2", "sbbic0") if include_fill else ("bic0", "sbbic0")
    results = {}
    for lam in lambdas:
        prob = block_problem(scale, penalty=lam)
        mesh = prob.mesh
        if lam == lambdas[0]:
            table.note(dof_summary(prob))
        orig = partition_nodes_rcb(mesh.coords, ndomains)
        impr = contact_aware_partition(mesh.coords, mesh.contact_groups, ndomains)
        qual_orig = partition_quality(orig, mesh.contact_groups)
        qual_impr = partition_quality(impr, mesh.contact_groups)
        table.claim(
            f"improved partitioning cuts no groups (lambda={lam:g})",
            qual_impr["cut_groups"] == 0,
        )

        for family in (FAMILY_TABLE[f] for f in families):
            name = family.stage
            make = family.per_domain(mesh.contact_groups, mesh.n_nodes)
            row = []
            for part in (orig, impr):
                lp = LocalizedPreconditioner(prob.a, part, make)
                res = cg_solve(prob.a, prob.b, lp, max_iter=20000)
                row.append(res.iterations if res.converged else None)
            results[(name, lam)] = tuple(row)
            p_orig, p_impr = PAPER.get((name, lam), ("-", "-"))
            table.add_row(
                name,
                lam,
                row[0] if row[0] is not None else "No Conv.",
                row[1] if row[1] is not None else "No Conv.",
                p_orig,
                p_impr,
                int(qual_orig["cut_groups"]),
            )

    for (name, lam), (o, i) in results.items():
        if lam == max(lambdas):
            table.claim(
                f"improved partitioning dramatically reduces {name} iterations at lambda={lam:g}",
                o is None or (i is not None and i * 2 <= o),
            )
    return table


if __name__ == "__main__":
    run().print()
