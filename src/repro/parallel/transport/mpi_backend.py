"""mpi4py transport: the same Comm surface over a real MPI fabric.

Guarded-import optional backend (the PetraM ``use_parallel`` idiom from
SNIPPETS.md Snippet 2): importing this module never requires mpi4py —
:func:`is_available` answers cheaply, and :class:`MpiTransport` raises a
clear error when constructed without the runtime.  The transport
registry (:mod:`repro.parallel.transport.registry`) falls back to
``lockstep`` with one logged warning, so ``--transport mpi`` on a
machine without MPI degrades instead of crashing.

Execution model: **replicated driver, SPMD**.  Every MPI rank runs the
identical driver script (standard SPMD launch: ``mpiexec -n 4 repro
solve --transport mpi --ndomains 4``), holds all domain structures and
advances every rank's CG program in lockstep
(:func:`repro.parallel.distributed.parallel_cg`), but each rank
*communicates* only its own domain's data:

- ``exchange_external`` posts nonblocking receives for the rank's
  external DOFs and sends for its boundary DOFs (the GeoFEM SEND/RECV
  tables of Fig. 4), then mirrors every rank's ghost values locally via
  ``allgather`` so the replicated solver state stays identical on all
  ranks;
- ``allreduce_sum`` / ``allreduce_sum_vec`` use ``allgather`` plus the
  same rank-ordered ``np.sum`` reduction as ``LockstepComm`` — NOT
  ``MPI.SUM`` — because vendor allreduces may reassociate floating-point
  sums per topology, and this repo's determinism gate demands
  bit-identical dot products across transports;
- ``halo_mismatch`` piggybacks the checksum census on the same
  allgather, like the process backend.

This backend exists to make the abstraction honest — the surface is
proven against a second real transport, not designed around
``multiprocessing`` quirks.  It cannot be exercised in this repo's CI
(the image has no mpi4py, deliberately not installed); the process
backend provides the tested real-process semantics.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.comm import CommLog
from repro.parallel.partition import LocalDomain
from repro.parallel.transport.process_backend import _checksum

__all__ = ["MpiTransport", "is_available"]

try:  # pragma: no cover - exercised only on MPI-equipped machines
    from mpi4py import MPI as _MPI

    _HAVE_MPI = True
except ImportError:
    _MPI = None
    _HAVE_MPI = False


def is_available() -> bool:
    """True when mpi4py imports (the launch geometry is checked later)."""
    return _HAVE_MPI


class MpiTransport:  # pragma: no cover - requires an MPI runtime
    """Replicated-driver SPMD transport over ``mpi4py``.

    Requires ``COMM_WORLD.size == len(domains)`` — one MPI rank per
    domain, each launched with the same driver script.  See the module
    docstring for the execution model and the determinism contract.
    """

    def __init__(self, domains: list[LocalDomain], *, comm=None) -> None:
        if not _HAVE_MPI:
            raise RuntimeError(
                "the mpi transport requires mpi4py, which is not importable "
                "in this environment; use --transport process for real-OS "
                "process semantics without an MPI runtime"
            )
        self.comm = comm if comm is not None else _MPI.COMM_WORLD
        if self.comm.Get_size() != len(domains):
            raise RuntimeError(
                f"mpi transport needs one rank per domain: launched with "
                f"{self.comm.Get_size()} rank(s) for {len(domains)} domain(s) "
                f"(mpiexec -n {len(domains)} ...)"
            )
        self.domains = domains
        self.rank = self.comm.Get_rank()
        self.log = CommLog(rank=self.rank)
        self.log.max_neighbor_count = len(domains[self.rank].recv_tables)
        self._last_checksums = None

    @property
    def size(self) -> int:
        return len(self.domains)

    # -- Comm surface ---------------------------------------------------

    def exchange_external(self, vectors: list[np.ndarray]) -> None:
        """GeoFEM boundary exchange for the own rank, then state mirror.

        Phase 1 is the paper's communication pattern (nonblocking
        ``Isend``/``Irecv`` per neighbor edge, counted in the census);
        phase 2 (``allgather`` of ghost regions) only re-synchronizes
        the *replicated* copies of remote domains and is bookkeeping of
        the execution model, not of the algorithm — it is therefore not
        tallied, keeping the message census comparable to lockstep."""
        me = self.rank
        dom = self.domains[me]
        reqs = []
        recv_bufs: dict[int, np.ndarray] = {}
        for owner, ext_local in dom.recv_tables.items():
            buf = np.empty(dom.local_dofs(ext_local).size, dtype=np.float64)
            recv_bufs[owner] = buf
            reqs.append(self.comm.Irecv(buf, source=owner, tag=17))
        messages = []
        for nbr, bnd_local in dom.send_tables.items():
            payload = np.ascontiguousarray(
                vectors[me][dom.local_dofs(bnd_local)]
            )
            reqs.append(self.comm.Isend(payload, dest=nbr, tag=17))
            messages.append(payload.size * 8)
        _MPI.Request.Waitall(reqs)
        for owner, buf in recv_bufs.items():
            vectors[me][dom.local_dofs(dom.recv_tables[owner])] = buf
        self.log.record_exchange(messages)

        # checksum piggyback + replicated-state mirror in one allgather
        ghost = {
            d: np.ascontiguousarray(
                vectors[d][self._ghost_dofs(d)]
            )
            for d in range(self.size)
        }
        send_ck = {
            nbr: _checksum(vectors[me][dom.local_dofs(bnd)])
            for nbr, bnd in dom.send_tables.items()
        }
        recv_ck = {
            owner: _checksum(recv_bufs[owner]) for owner in recv_bufs
        }
        gathered = self.comm.allgather((ghost[me], recv_ck, send_ck))
        for d, (gvals, _, _) in enumerate(gathered):
            vectors[d][self._ghost_dofs(d)] = gvals
        self._last_checksums = (
            [g[1] for g in gathered],
            [g[2] for g in gathered],
        )

    def _ghost_dofs(self, d: int) -> slice:
        dom = self.domains[d]
        return slice(dom.n_internal * dom.b, dom.n_local * dom.b)

    def halo_mismatch(self, vectors: list[np.ndarray]) -> float:
        """Receiver-vs-sender checksum disagreement of the last exchange."""
        if self._last_checksums is None:
            return 0.0
        recv_cks, send_cks = self._last_checksums
        worst = 0.0
        for d in range(self.size):
            for owner, (rsum, rfinite) in recv_cks[d].items():
                ssum, sfinite = send_cks[owner][d]
                if not (rfinite and sfinite):
                    return float("inf")
                worst = max(worst, abs(rsum - ssum))
        return worst

    def allreduce_sum_vec(self, contributions: list[np.ndarray]) -> np.ndarray:
        """Rank-ordered deterministic global sum (see module docstring)."""
        if len(contributions) != self.size:
            raise ValueError(
                f"expected {self.size} contributions, got {len(contributions)}"
            )
        own = np.asarray(contributions[self.rank], dtype=np.float64)
        gathered = self.comm.allgather(own)
        self.log.record_allreduce()
        stacked = np.asarray(gathered, dtype=np.float64)
        return stacked.sum(axis=0)

    def allreduce_sum(self, contributions: list[float]) -> float:
        return float(
            self.allreduce_sum_vec(
                [np.array([float(c)]) for c in contributions]
            )[0]
        )
