"""Analytical Earth Simulator / SR2201 performance model.

The paper's GFLOPS and scaling figures were measured on hardware we do
not have; DESIGN.md documents the substitution: a calibrated machine
model (vector pipeline with half-length startup, OpenMP synchronization
cost per color, MPI latency/bandwidth) that consumes the *measured*
structure of our solvers — loop-length histograms from DJDS, flop counts
from the factorizations, message tables from the partitioner — and
returns per-iteration time breakdowns.  All hardware constants live in
:mod:`~repro.perfmodel.machines` with their calibration sources.
"""

from repro.perfmodel.machines import (
    EARTH_SIMULATOR,
    SR2201,
    Interconnect,
    MachineModel,
    VectorPipeline,
)
from repro.perfmodel.kernels import SolverOpCensus, census_from_factorization
from repro.perfmodel.spec import StructuredSpec
from repro.perfmodel.hybrid import (
    IterationTime,
    estimate_iteration_time,
)

__all__ = [
    "EARTH_SIMULATOR",
    "SR2201",
    "Interconnect",
    "MachineModel",
    "VectorPipeline",
    "SolverOpCensus",
    "census_from_factorization",
    "StructuredSpec",
    "IterationTime",
    "estimate_iteration_time",
]
