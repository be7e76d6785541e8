"""Transport layer: real communication fabrics behind the Comm surface.

Everything above this package talks to a *communicator* with the command
contract of :class:`~repro.parallel.comm.LockstepComm`: ``start(setup, factory)``
and ``run(fn, *args)`` on every rank, ``revive(rank)``, ``scratch()``,
``halo``, ``close()``, the fault plans ``inject_kill`` /
``inject_worker_fault``, the census ``log`` and the one-collective
surface (``exchange_external``, ``allreduce_sum``, ``allreduce_sum_vec``,
``halo_mismatch``).  This package provides it over a fabric where the
failure modes are real:
:mod:`~repro.parallel.transport.process_backend`, one resident forked OS
worker per rank, which builds that rank's factor and runs its CG for
every solve, meeting its peers through shared memory.  SIGKILL a worker
and the driver finds a genuinely dead process; a wait past the
transport's ``budget`` with every peer alive is a ``CommTimeout``.

The rank workers outlive their system: ``close()`` parks them, with
their shared arena, in a per-process pool that holds one set, and the
next process-transport system with as many ranks takes them instead of
forking; :func:`shutdown` (also run at interpreter exit) stops them.

``DistributedSystem.from_global(..., transport="lockstep" | "process")``
chooses the fabric.  See DESIGN.md section 13 for the architecture.
"""

from repro.parallel.transport.process_backend import ProcessTransport, shutdown

__all__ = ["ProcessTransport", "shutdown"]
