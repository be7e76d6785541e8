"""Hybrid vs flat-MPI time model (paper sections 4.1, 4.6).

One CG iteration on one SMP node costs:

- **compute**: the census's vector loops through the machine's pipeline
  model (identical for both programming models — both end up with the
  same per-PE loop lengths);
- **OpenMP synchronization** (hybrid only): one barrier per parallel
  region, ~``2 * ncolors`` of them per iteration — the color-count
  sensitivity of Figs. 26/27/30/31;
- **MPI**: the boundary exchange plus three allreduces.  Flat MPI runs 8x
  the ranks with ~quarter-size messages (a face of a 1/8 subdomain),
  three of them intra-node; its allreduce trees are deeper.  This is the
  latency-vs-bandwidth structure of Fig. 20 and the reason hybrid
  overtakes flat MPI at large node counts (Figs. 17-19).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perfmodel.kernels import SolverOpCensus
from repro.perfmodel.machines import MachineModel


@dataclass
class IterationTime:
    """Per-iteration time breakdown for one configuration."""

    compute_seconds: float
    openmp_seconds: float
    mpi_latency_seconds: float
    mpi_bandwidth_seconds: float
    flops_per_iteration_node: float
    n_nodes: int

    @property
    def comm_seconds(self) -> float:
        return self.mpi_latency_seconds + self.mpi_bandwidth_seconds

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.openmp_seconds + self.comm_seconds

    @property
    def work_ratio_percent(self) -> float:
        """Paper Figs. 5, 17b, 18b: computation / elapsed time.

        A degenerate census (no phases, or all-zero loop lengths) has
        zero elapsed time; report 0.0 instead of dividing by it."""
        if self.total_seconds == 0.0:
            return 0.0
        return 100.0 * (self.compute_seconds + self.openmp_seconds) / self.total_seconds

    def gflops_total(self) -> float:
        """Aggregate sustained GFLOPS over all nodes (0.0 for a
        zero-time degenerate census)."""
        if self.total_seconds == 0.0:
            return 0.0
        return self.n_nodes * self.flops_per_iteration_node / self.total_seconds / 1e9


def estimate_iteration_time(
    census: SolverOpCensus,
    machine: MachineModel,
    model: str,
    n_nodes: int,
) -> IterationTime:
    """Time one CG iteration of ``census`` per node on ``n_nodes`` nodes."""
    if model not in ("hybrid", "flat"):
        raise ValueError(f"model must be 'hybrid' or 'flat', got {model!r}")
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    pe = machine.pe

    # census phases list every PE's loops; they execute concurrently on
    # the node's PEs, so wall time is the aggregate pipeline time / PEs.
    compute = sum(
        pe.time_for_loops(p.loop_lengths, p.flops_per_element) for p in census.phases
    ) / census.pe_per_node
    openmp = machine.openmp_sync_seconds * census.openmp_barriers if model == "hybrid" else 0.0

    lat = 0.0
    bw = 0.0
    msgs = census.neighbor_message_bytes
    nranks = n_nodes if model == "hybrid" else n_nodes * machine.pe_per_node
    if model == "hybrid":
        if n_nodes > 1 and msgs.size:
            for nbytes in msgs:
                lat += census.exchanges_per_iteration * machine.inter_node.latency_seconds
                bw += census.exchanges_per_iteration * nbytes / machine.inter_node.bandwidth_bytes
        if n_nodes > 1:
            ar = machine.inter_node.allreduce_time(nranks)
            lat += census.allreduce_per_iteration * ar
    else:
        # Flat MPI: each PE owns 1/8 of the node's subdomain.  Its faces
        # shrink by (1/8)^(2/3) = 1/4; roughly half its neighbors are
        # intra-node (shared memory), the rest cross the interconnect
        # when more than one node is involved.  Inter-node traffic of all
        # eight ranks funnels through the node's single NIC, so latency
        # there is serialized by pe_per_node — the Fig. 20 latency wall.
        contention = machine.pe_per_node  # NIC message-processing serialization
        ar_contention = machine.pe_per_node / 2.0  # partial overlap in the tree
        pe_msgs = msgs / machine.pe_per_node ** (2.0 / 3.0)
        for i, nbytes in enumerate(pe_msgs):
            intra = (i % 2 == 0) if n_nodes > 1 else True
            link = machine.intra_node if intra else machine.inter_node
            factor = 1.0 if intra else contention
            lat += census.exchanges_per_iteration * link.latency_seconds * factor
            bw += census.exchanges_per_iteration * nbytes / link.bandwidth_bytes
        if nranks > 1:
            if n_nodes == 1:
                ar = machine.intra_node.allreduce_time(nranks)
            else:
                # tree: 3 intra-node stages, the rest inter-node with
                # NIC contention among the node's ranks.
                intra_stages = float(np.log2(machine.pe_per_node))
                total_stages = float(np.ceil(np.log2(nranks)))
                inter_stages = max(total_stages - intra_stages, 0.0)
                ar = intra_stages * machine.intra_node.allreduce_latency_seconds
                ar += inter_stages * machine.inter_node.allreduce_latency_seconds * ar_contention
            lat += census.allreduce_per_iteration * ar

    return IterationTime(
        compute_seconds=compute,
        openmp_seconds=openmp,
        mpi_latency_seconds=lat,
        mpi_bandwidth_seconds=bw,
        flops_per_iteration_node=census.flops_per_iteration,
        n_nodes=n_nodes,
    )

