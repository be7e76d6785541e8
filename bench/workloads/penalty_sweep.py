"""penalty_sweep: the ALM / Table 2 regime on an irregular mesh.

The Southwest Japan structure is built once in set-up; each repetition
runs SB-BIC(0) at four penalties (``system`` + ``refactor`` on the cached
symbolic + ``cg_solve``), then BIC(0) and Diagonal scaling at the lowest.
Four fifths of the time is substitution sweeps, matvec and BLAS-1 with
numeric-only set-up, so kernel/``solvers`` optimisations show here and
assembly optimisations do not; the three families use the kernel layer
differently (selective-block sweeps, 3x3 block sweeps, no sweep).
"""

from __future__ import annotations

import time

import numpy as np

from bench.workloads.base import BaseWorkload, SpanView
from bench.workloads.common import (
    HostState,
    kernel_probes,
    seeded_load,
    seeded_penalty,
    solve_failed,
    true_relres,
)

DECADES = (2, 4, 6, 8)


class PenaltySweep(BaseWorkload):
    name = "penalty_sweep"
    warmups = 1

    def setup(self) -> None:
        from repro import DiagonalScaling, bic, cg_solve, sb_bic0
        from repro.experiments.workloads import swjapan_structure

        self.cg_solve = cg_solve
        self.DiagonalScaling = DiagonalScaling
        t0 = time.perf_counter()
        self.structure = swjapan_structure(1.0 if self.quick else 2.0)
        self.structure_raw_s = time.perf_counter() - t0
        self.penalties = [seeded_penalty(d, self.rng) for d in DECADES]
        self.b = seeded_load(self.structure.b, self.rng)
        a = self.structure.system(self.penalties[0])
        self.sbbic0 = sb_bic0(a, self.structure.groups)
        self.bic0 = bic(a, fill_level=0)

    def repetition(self, index: int):
        call = self.tracer.call
        s, b = self.structure, self.b
        solves = []  # (arm, penalty, result)
        for decade, penalty in zip(DECADES, self.penalties):
            a = call("fem.system_affine", s.system, penalty)
            call("precond.numeric", self.sbbic0.refactor, a)
            solves.append((f"sbbic0_1e{decade}", penalty, call(
                "solvers.solve.sbbic0", self.cg_solve, a, b, self.sbbic0,
                eps=1e-8, record_history=False)))
        low = self.penalties[0]
        a = call("fem.system_affine", s.system, low)
        call("precond.numeric", self.bic0.refactor, a)
        solves.append((f"bic0_1e{DECADES[0]}", low, call(
            "solvers.solve.bic0", self.cg_solve, a, b, self.bic0,
            eps=1e-8, record_history=False)))
        diag = call("precond.numeric", self.DiagonalScaling, a)
        solves.append((f"diag_1e{DECADES[0]}", low, call(
            "solvers.solve.diag", self.cg_solve, a, b, diag,
            eps=1e-8, record_history=False)))
        return solves

    def verify(self, solves) -> dict:
        failed, worst, gap, by_arm = 0, 0.0, 0.0, {}
        for arm, penalty, result in solves:
            # system() reuses one CSR object, so rebuild the operator here
            relres = true_relres(self.structure.system(penalty), result.x, self.b)
            failed += solve_failed(result.converged, result.x, relres)
            worst = max(worst, relres)
            gap = max(gap, relres - float(result.relative_residual))
            by_arm[arm] = int(result.iterations)
        return {
            "iterations": sum(by_arm.values()),
            "attempted": len(solves),
            "failed": int(failed),
            "true_relres": worst,
            "residual_gap": gap,
            "by_arm": by_arm,
        }

    def instrument(self) -> None:
        from repro.precond import icfact

        self.tracer.instrument(icfact.ICSymbolic, "__init__", "precond.symbolic")

    def layer_metrics(self, spans: SpanView, host: HostState) -> dict[str, float]:
        s = self.structure
        by_arm = self.verify(self.repetition(-1))["by_arm"]
        a = s.system(self.penalties[0])
        self.sbbic0.refactor(a)
        diag = self.DiagonalScaling(a)
        r = np.ones(s.ndof)
        out = kernel_probes(a, self.sbbic0, host)
        apply_s = {
            "sbbic0": out["precond.apply_s_per_call"],
            "bic0": host.per_call(lambda: self.bic0.apply(r)),
            "diag": host.per_call(lambda: diag.apply(r)),
        }
        solve_s = {f: spans.self_s(f"solvers.solve.{f}") for f in apply_s}
        iterations = {
            f: sum(n for arm, n in by_arm.items() if arm.startswith(f)) for f in apply_s
        }
        total_solve = sum(solve_s.values())
        total_iterations = sum(iterations.values())
        in_kernels = sum(
            iterations[f] * (apply_s[f] + out["sparse.matvec_s_per_call"]) for f in apply_s
        )
        stats = self.sbbic0.factorization_stats()
        out.update({
            "fem.structure_s": self.structure_raw_s * host.setup_factor,
            "fem.system_affine_s_per_call": spans.self_s("fem.system_affine")
            / max(spans.count("fem.system_affine"), 1),
            "fem.ndof": float(s.ndof),
            "fem.nnz": float(a.nnz),
            "fem.contact_groups": float(len(s.groups)),
            "reorder.n_colors": float(stats["ncolors"]),
            "precond.symbolic_count": spans.count("precond.symbolic"),
            "precond.numeric_s": spans.self_s("precond.numeric"),
            "precond.numeric_count": spans.count("precond.numeric"),
            "precond.pivot_nudges": float(stats["pivot_nudges"]),
            "solvers.solve_s": total_solve,
            "solvers.iterations": float(total_iterations),
            "solvers.s_per_iter": total_solve / total_iterations,
            "solvers.cg_other_frac": 1.0 - in_kernels / total_solve if total_solve else 0.0,
        })
        out.update({f"solvers.iterations.{arm}": float(n) for arm, n in by_arm.items()})
        return out
