"""Transport layer: real communication fabrics behind the Comm surface.

Everything above this package talks to a *communicator* — an object with
the ``LockstepComm`` surface (``exchange_external``, ``allreduce_sum``,
``allreduce_sum_vec``, ``halo_mismatch``, ``log``).  This package
provides that surface over fabrics where the failure modes are real:

- :mod:`~repro.parallel.transport.process_backend` — one resident
  forked OS worker per rank, which builds that rank's factor and runs
  its CG for every solve, meeting its peers through shared memory.
  SIGKILL a worker and the driver finds a genuinely dead process;
- :mod:`~repro.parallel.transport.policy` — the budget that bounds
  every wait, and the ``RankFailure`` vs ``CommTimeout`` classification
  contract;
- :mod:`~repro.parallel.transport.registry` — selection by one
  precedence: explicit argument > ``--transport`` (:func:`set_transport`)
  > ``REPRO_TRANSPORT`` env var > ``lockstep``.

See DESIGN.md section 13 for the architecture.
"""

from repro.parallel.transport.policy import TransportPolicy
from repro.parallel.transport.process_backend import ProcessTransport
from repro.parallel.transport.registry import (
    ENV_VAR,
    active_transport,
    available_transports,
    create_transport,
    describe,
    reset,
    resolve_name,
    set_transport,
)

__all__ = [
    "ENV_VAR",
    "ProcessTransport",
    "TransportPolicy",
    "active_transport",
    "available_transports",
    "create_transport",
    "describe",
    "reset",
    "resolve_name",
    "set_transport",
]
