"""Ablation: two-level (coarse-corrected) vs pure localization.

The paper's conclusion names the scalability limits of localized
preconditioning — iteration counts creep up with the domain count — and
points at multilevel methods as the alternative (ref. [24]).  Adding
rigid-body modes per contact-aware domain through
:class:`~repro.precond.twolevel.CoarseCorrection` flattens (and
typically reverses) the iteration growth.
"""

from __future__ import annotations

from repro.experiments.common import ReproTable
from repro.experiments.workloads import block_problem, dof_summary
from repro.parallel import contact_aware_partition
from repro.precond import FAMILY_TABLE, CoarseCorrection, LocalizedPreconditioner, rigid_body_operator
from repro.solvers.cg import cg_solve


def run(scale: float = 1.0, domain_counts=(2, 4, 8, 16)) -> ReproTable:
    prob = block_problem(scale, penalty=1e6)
    mesh = prob.mesh
    table = ReproTable(
        title="Two-level coarse correction vs pure localized SB-BIC(0)",
        paper_reference="Conclusion / ref. [24] (multilevel as future work); ablation, no paper numbers",
        columns=["domains", "localized_iters", "two_level_iters", "coarse_dofs"],
    )
    table.note(dof_summary(prob))

    factory = FAMILY_TABLE["sbbic0"].per_domain(mesh.contact_groups, mesh.n_nodes)
    loc_iters, tl_iters = [], []
    for nd in domain_counts:
        part = contact_aware_partition(mesh.coords, mesh.contact_groups, nd)
        lp = LocalizedPreconditioner(prob.a, part, factory)
        rbm = rigid_body_operator(mesh.coords, part, prob.fixed_dofs)
        tl = CoarseCorrection(prob.a, lp, rbm)
        r1 = cg_solve(prob.a, prob.b, lp, max_iter=30000)
        r2 = cg_solve(prob.a, prob.b, tl, max_iter=30000)  # from tl.start: Q b
        loc_iters.append(r1.iterations)
        tl_iters.append(r2.iterations)
        table.add_row(nd, r1.iterations, r2.iterations, rbm.shape[0])

    table.claim(
        "two-level never needs more iterations than localized",
        all(t <= l for t, l in zip(tl_iters, loc_iters)),
    )
    table.claim(
        "two-level flattens the iteration growth",
        (tl_iters[-1] - tl_iters[0]) <= (loc_iters[-1] - loc_iters[0]),
    )
    table.claim(
        "clear improvement at the largest domain count (>=20%)",
        tl_iters[-1] <= 0.8 * loc_iters[-1],
    )
    return table


if __name__ == "__main__":
    run().print()
