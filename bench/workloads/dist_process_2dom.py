"""dist_process_2dom: the distributed path on real processes.

The block model is assembled once in set-up; each repetition partitions
it contact-aware into two domains, builds the distributed system on the
process transport with localized SB-BIC(0), runs ``parallel_cg`` and
closes the transport.  The only workload where halo exchange, allreduce
and fork cost exist: ROADMAP item 3 (SPMD rank workers) must move it and
must not move the other three.
"""

from __future__ import annotations

from bench.workloads.base import BaseWorkload, SpanView
from bench.workloads.common import (
    HostState,
    seeded_load,
    seeded_penalty,
    solve_failed,
    true_relres,
)

NDOMAINS = 2


class DistProcess2Dom(BaseWorkload):
    name = "dist_process_2dom"
    warmups = 1

    def setup(self) -> None:
        from repro import DistributedSystem, contact_aware_partition, parallel_cg, sb_bic0
        from repro.experiments.workloads import block_problem
        from repro.precond.localized import restrict_groups

        self.contact_aware_partition = contact_aware_partition
        self.DistributedSystem = DistributedSystem
        self.parallel_cg = parallel_cg
        self.sb_bic0 = sb_bic0
        self.problem = block_problem(
            1.0 if self.quick else 1.5, seeded_penalty(6, self.rng)
        )
        self.b = seeded_load(self.problem.b, self.rng)
        groups, n_nodes = self.problem.groups, self.problem.mesh.n_nodes
        self.local_sbbic0 = lambda sub, nodes: sb_bic0(
            sub, restrict_groups(groups, nodes, n_nodes)
        )

    def _solve(self, transport: str):
        call = self.tracer.call
        p = self.problem
        part = call("parallel.partition", self.contact_aware_partition,
                    p.mesh.coords, p.groups, NDOMAINS)
        system = call("parallel.build", self.DistributedSystem.from_global,
                      p.a, self.b, part, self.local_sbbic0, transport=transport)
        try:
            result = call("parallel.solve", self.parallel_cg, system, eps=1e-8)
            log = system.comm_log
        finally:
            call("parallel.close", system.close)
        return part, result, log

    def repetition(self, index: int):
        return self._solve("process")

    def verify(self, payload) -> dict:
        _part, result, log = payload
        relres = true_relres(self.problem.a, result.x, self.b)
        return {
            "iterations": int(result.iterations),
            "attempted": 1,
            "failed": int(solve_failed(result.converged, result.x, relres)),
            "true_relres": relres,
            "residual_gap": relres - float(result.relative_residual),
            "messages": log.n_messages,
            "bytes_sent": log.bytes_sent,
            "allreduces": log.n_allreduce,
        }

    def instrument(self) -> None:
        from repro.parallel.transport.process_backend import ProcessTransport
        from repro.precond import icfact

        t = self.tracer
        t.instrument(ProcessTransport, "__init__", "parallel.transport.fork")
        t.instrument(ProcessTransport, "exchange_external", "parallel.transport.halo")
        t.instrument(ProcessTransport, "allreduce_sum_vec", "parallel.transport.allreduce")
        t.instrument(icfact.ICSymbolic, "__init__", "precond.symbolic")
        t.instrument(icfact.BlockICFactorization, "refactor", "precond.numeric")

    def layer_metrics(self, spans: SpanView, host: HostState) -> dict[str, float]:
        from repro import cg_solve
        from repro.parallel.contact_partition import partition_quality

        p = self.problem
        (part, result, log), factor = host.bracket(lambda: self._solve("lockstep"))
        lockstep_s = result.solve_seconds * factor
        quality = partition_quality(part, p.groups)
        m = self.sb_bic0(p.a, p.groups)
        serial, factor = host.bracket(lambda: cg_solve(p.a, self.b, m, eps=1e-8))
        serial_s = serial.solve_seconds * factor
        if not serial.converged:
            raise RuntimeError("serial baseline did not converge")
        process_s = spans.total_s("parallel.solve")

        def per_call(name: str) -> float:
            return spans.total_s(name) / max(spans.count(name), 1)

        return {
            "fem.ndof": float(p.ndof),
            "fem.nnz": float(p.a.nnz),
            "fem.contact_groups": float(len(p.groups)),
            "precond.symbolic_s": spans.self_s("precond.symbolic"),
            "precond.symbolic_count": spans.count("precond.symbolic"),
            "precond.numeric_s": spans.self_s("precond.numeric"),
            "precond.numeric_count": spans.count("precond.numeric"),
            "parallel.partition_s": spans.self_s("parallel.partition"),
            "parallel.cut_groups": quality["cut_groups"],
            "parallel.imbalance_pct": quality["imbalance_percent"],
            "parallel.build_s": spans.total_s("parallel.build"),
            "parallel.solve_s": process_s,
            "parallel.iterations": float(result.iterations),
            "parallel.messages": float(log.n_messages),
            "parallel.bytes_sent": float(log.bytes_sent),
            "parallel.allreduces": float(log.n_allreduce),
            "parallel.msgs_per_iter": log.n_messages / max(result.iterations, 1),
            "parallel.lockstep_solve_s": lockstep_s,
            "parallel.serial_solve_s": serial_s,
            "parallel.transport_overhead_frac": (
                (process_s - lockstep_s) / process_s if process_s else 0.0
            ),
            "parallel.speedup_vs_serial": serial_s / process_s if process_s else 0.0,
            "parallel.transport.allreduce_s_per_call": per_call("parallel.transport.allreduce"),
            "parallel.transport.halo_s_per_call": per_call("parallel.transport.halo"),
            "parallel.transport.fork_s": spans.total_s("parallel.transport.fork"),
        }
