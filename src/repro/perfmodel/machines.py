"""Machine models and their calibration.

The vector pipeline follows Hockney's ``r_inf / n_half`` law: a loop of
length ``L`` sustains ``r_inf * L / (L + n_half)`` flops/s; non-vectorized
code runs at a flat scalar rate.  The Earth Simulator constants are
calibrated against anchor points the paper reports for one SMP node:
PDJDS at vector length ~2,650 -> 22.7 GFLOPS/node (Fig. 15 at 6.3M DOF),
~19 GFLOPS/node at 786k DOF/node (Fig. 16a), CRS without reordering
(scalar execution) -> 0.30 GFLOPS/node.  That fixes ``r_inf ~ 2.95``
GFLOPS/PE and ``n_half ~ 100``; the per-loop startup cost carries the
short-loop penalty that makes PDCRS several times slower than PDJDS.

Interconnect constants: the Earth Simulator crossbar moves 12.3 GB/s
between nodes (Kerbyson et al., LA-UR-02-5222, the paper's ref. [22]);
the 30 us effective point-to-point cost includes MPI buffer packing.
Flat MPI additionally pays NIC contention — eight ranks per node share
one network interface — modelled in :mod:`~repro.perfmodel.hybrid`.
The Hitachi SR2201's network is 300 MB/s / 40 us class hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VectorPipeline:
    """Hockney-law vector processor model (per PE)."""

    peak_flops: float  # advertised peak, for "percent of peak" reporting
    r_inf: float  # asymptotic sustained flops/s on sparse kernels
    n_half: float  # loop length yielding half of r_inf
    scalar_flops: float  # sustained rate without vectorization
    loop_startup_seconds: float  # fixed cost to launch one vector loop

    def rate(self, loop_length: float) -> float:
        """Sustained flops/s for vector loops of the given length."""
        if loop_length <= 0:
            return self.scalar_flops
        return self.r_inf * loop_length / (loop_length + self.n_half)

    def time_for_loops(self, loop_lengths: np.ndarray, flops_per_element: float) -> float:
        """Seconds to execute one pass over all loops (vectorized)."""
        ll = np.asarray(loop_lengths, dtype=np.float64)
        ll = ll[ll > 0]  # a zero-length loop executes nothing (0/0 guard)
        if ll.size == 0:
            return 0.0
        rates = self.r_inf * ll / (ll + self.n_half)
        return float((ll * flops_per_element / rates).sum() + ll.size * self.loop_startup_seconds)


@dataclass(frozen=True)
class Interconnect:
    """Point-to-point + collective communication model."""

    latency_seconds: float
    bandwidth_bytes: float  # per link
    allreduce_latency_seconds: float  # per tree stage

    def allreduce_time(self, nranks: int, nbytes: float = 8.0) -> float:
        if nranks <= 1:
            return 0.0
        stages = float(np.ceil(np.log2(nranks)))
        return stages * (self.allreduce_latency_seconds + nbytes / self.bandwidth_bytes)


@dataclass(frozen=True)
class MachineModel:
    """An SMP-cluster machine: vector PEs + intra-node + inter-node comm."""

    name: str
    pe: VectorPipeline
    pe_per_node: int
    inter_node: Interconnect
    intra_node: Interconnect  # flat-MPI messages inside one SMP node
    openmp_sync_seconds: float  # one OpenMP barrier / parallel-do launch


EARTH_SIMULATOR = MachineModel(
    name="Earth Simulator",
    pe=VectorPipeline(
        peak_flops=8.0e9,
        r_inf=2.95e9,
        n_half=100.0,
        scalar_flops=0.0375e9,
        loop_startup_seconds=0.7e-6,
    ),
    pe_per_node=8,
    inter_node=Interconnect(
        # effective MPI point-to-point cost including buffer packing
        latency_seconds=30.0e-6,
        bandwidth_bytes=12.3e9,
        allreduce_latency_seconds=30.0e-6,
    ),
    intra_node=Interconnect(
        latency_seconds=4.0e-6,
        bandwidth_bytes=16.0e9,
        allreduce_latency_seconds=4.0e-6,
    ),
    openmp_sync_seconds=9.0e-6,
)

SR2201 = MachineModel(
    name="Hitachi SR2201",
    pe=VectorPipeline(
        peak_flops=0.3e9,
        # pseudo-vector (PVP) pipelines: mildly length-sensitive
        r_inf=0.075e9,
        n_half=30.0,
        scalar_flops=0.03e9,
        loop_startup_seconds=0.3e-6,
    ),
    pe_per_node=1,
    inter_node=Interconnect(
        latency_seconds=40.0e-6,
        bandwidth_bytes=0.3e9,
        allreduce_latency_seconds=40.0e-6,
    ),
    intra_node=Interconnect(
        latency_seconds=40.0e-6,
        bandwidth_bytes=0.3e9,
        allreduce_latency_seconds=40.0e-6,
    ),
    openmp_sync_seconds=0.0,
)
