"""Distributed-memory emulation of GeoFEM's parallel solver (section 2).

Node-based domain partitioning with internal / external / boundary nodes
and explicit communication tables (Figs. 3-4), a lockstep in-process
communicator standing in for MPI, the contact-aware repartitioner of
Fig. 8, and a genuinely distributed parallel CG whose iterates match the
sequential solver bit-for-bit in exact arithmetic.

The communicator is pluggable (:mod:`repro.parallel.transport`): the
lockstep emulation by default, one resident forked OS worker process
per rank (each building its rank's factor and running its CG) with
``transport="process"`` (CLI ``--transport process``) — both behind one
command contract (``start`` / ``run`` / ``revive``), one fault-injection
surface and one census (:class:`CommCensus`).
"""

from repro.parallel.partition import (
    LocalDomain,
    build_domains,
    partition_nodes_rcb,
)
from repro.parallel.contact_partition import (
    contact_aware_partition,
    partition_quality,
)
from repro.parallel.comm import CommCensus, LockstepComm
from repro.parallel.distributed import DistributedSystem, parallel_cg
from repro.parallel.transport import ProcessTransport

__all__ = [
    "LocalDomain",
    "build_domains",
    "partition_nodes_rcb",
    "contact_aware_partition",
    "partition_quality",
    "CommCensus",
    "LockstepComm",
    "DistributedSystem",
    "parallel_cg",
    "ProcessTransport",
]
