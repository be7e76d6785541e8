"""The benchmark's workloads, by name (the order is the reporting order)."""

from bench.workloads.cold_solve import ColdSolve
from bench.workloads.dist_process_2dom import DistProcess2Dom
from bench.workloads.penalty_sweep import PenaltySweep
from bench.workloads.serve_mixed import ServeMixed

WORKLOADS = {w.name: w for w in (ColdSolve, PenaltySweep, ServeMixed, DistProcess2Dom)}
