"""cold_solve: what ``repro solve`` does once, nothing cached.

mesh -> ``build_contact_problem`` -> ``sb_bic0`` (selective blocks +
symbolic + numeric) -> ``cg_solve``; every object is dropped between
repetitions.  Assembly and the symbolic phase are about two thirds of
the time, so this is the workload where ``fem``/``precond`` set-up
optimisations show and kernel optimisations barely do.
"""

from __future__ import annotations

from bench.workloads.base import BaseWorkload, SpanView
from bench.workloads.common import (
    HostState,
    kernel_probes,
    seeded_load,
    seeded_penalty,
    solve_failed,
    solver_shares,
    true_relres,
)


class ColdSolve(BaseWorkload):
    name = "cold_solve"
    warmups = 2

    def setup(self) -> None:
        from repro import build_contact_problem, cg_solve, sb_bic0
        from repro.experiments.workloads import table2_block_mesh

        self.table2_block_mesh = table2_block_mesh
        self.build_contact_problem = build_contact_problem
        self.sb_bic0 = sb_bic0
        self.cg_solve = cg_solve
        self.scale = 1.0 if self.quick else 1.5
        self.penalty = seeded_penalty(6, self.rng)
        self.load_seed = int(self.rng.integers(2**31))

    def repetition(self, index: int):
        import numpy as np

        call = self.tracer.call
        mesh = call("fem.mesh", self.table2_block_mesh, self.scale)
        problem = call("fem.assembly", self.build_contact_problem, mesh, penalty=self.penalty)
        b = seeded_load(problem.b, np.random.default_rng(self.load_seed))
        m = call("precond.cold_setup", self.sb_bic0, problem.a, problem.groups)
        result = call("solvers.solve", self.cg_solve, problem.a, b, m, eps=1e-8)
        return problem, b, m, result

    def verify(self, payload) -> dict:
        problem, b, m, result = payload
        relres = true_relres(problem.a, result.x, b)
        return {
            "iterations": int(result.iterations),
            "attempted": 1,
            "failed": int(solve_failed(result.converged, result.x, relres)),
            "true_relres": relres,
            "residual_gap": relres - float(result.relative_residual),
        }

    def instrument(self) -> None:
        from repro.precond import icfact, sbbic

        t = self.tracer
        t.instrument(sbbic, "selective_block_supernodes", "core.selective_blocks")
        t.instrument(icfact.ICSymbolic, "__init__", "precond.symbolic")
        t.instrument(icfact, "multicolor", "reorder.ordering")
        t.instrument(icfact.BlockICFactorization, "refactor", "precond.numeric")

    def layer_metrics(self, spans: SpanView, host: HostState) -> dict[str, float]:
        problem, _b, m, result = self.repetition(-1)  # operands for the probes
        stats = m.factorization_stats()
        out = {
            "fem.mesh_s": spans.self_s("fem.mesh"),
            "fem.assembly_s": spans.self_s("fem.assembly"),
            "fem.ndof": float(problem.ndof),
            "fem.nnz": float(problem.a.nnz),
            "fem.contact_groups": float(len(problem.groups)),
            "core.selective_blocks_s": spans.self_s("core.selective_blocks"),
            "reorder.ordering_s": spans.self_s("reorder.ordering"),
            "reorder.n_colors": float(stats["ncolors"]),
            "precond.symbolic_s": spans.self_s("precond.symbolic"),
            "precond.symbolic_count": spans.count("precond.symbolic"),
            "precond.numeric_s": spans.self_s("precond.numeric"),
            "precond.numeric_count": spans.count("precond.numeric"),
            "precond.cold_setup_s": spans.total_s("precond.cold_setup"),
            "precond.pivot_nudges": float(stats["pivot_nudges"]),
            "solvers.solve_s": spans.self_s("solvers.solve"),
            "solvers.iterations": float(result.iterations),
        }
        out.update(kernel_probes(problem.a, m, host))
        out.update(solver_shares(
            out["solvers.solve_s"], result.iterations,
            out["precond.apply_s_per_call"], out["sparse.matvec_s_per_call"],
        ))
        return out
