"""Transport registry: which fabric carries the solver's communication.

A *transport* is anything exposing the
``LockstepComm`` surface (``exchange_external`` / ``allreduce_sum`` /
``allreduce_sum_vec`` / ``halo_mismatch`` / ``log``); the registry
resolves which one a :class:`~repro.parallel.distributed.DistributedSystem`
gets:

1. explicit per-call argument (``create_transport(domains, "process")``),
2. process-wide :func:`set_transport` (CLI ``--transport``),
3. the ``REPRO_TRANSPORT`` environment variable,
4. default: ``lockstep``.

Requesting an unavailable transport (``process`` on a fork-less
platform) is not an error: one logged warning, then the lockstep
emulation serves the solve — optional fabrics must never become hard
dependencies; an unknown name (``mpi``: there is no such transport) is.
The precedence and the fallback are
:class:`repro.utils.selection.Selection`.  Transports are stateful
objects bound to a domain decomposition, so the registry exposes a
factory (:func:`create_transport`) rather than module handles.
"""

from __future__ import annotations

from repro.parallel.comm import LockstepComm
from repro.parallel.partition import LocalDomain
from repro.parallel.transport import process_backend
from repro.utils.selection import Selection

__all__ = [
    "ENV_VAR",
    "active_transport",
    "available_transports",
    "create_transport",
    "describe",
    "reset",
    "resolve_name",
    "set_transport",
]

ENV_VAR = "REPRO_TRANSPORT"

_SELECTION = Selection(
    "transport",
    ENV_VAR,
    {"lockstep": lambda: True, "process": process_backend.is_available},
    default="lockstep",
    fallback="lockstep",
    logger="repro.parallel.transport",
    missing="the 'fork' start method is unavailable",
)

available_transports = _SELECTION.available_names
"""Names of the transports usable in this environment."""

resolve_name = _SELECTION.resolve
"""Resolve *name* (or the configured default) to a usable transport,
falling back to ``lockstep`` with one logged warning when the request is
not available on this machine."""

set_transport = _SELECTION.set
"""Set the process-wide transport; ``None`` restores the default.
Returns the name that will actually serve (after fallback)."""

reset = _SELECTION.reset
describe = _SELECTION.describe


def active_transport() -> str:
    """Resolved name of the transport the next system would be built on."""
    return resolve_name()


def create_transport(
    domains: list[LocalDomain], name: str | None = None, **opts
):
    """Build the resolved transport over *domains*.

    ``opts`` are forwarded to the backend constructor (``policy`` /
    ``trace_dir`` for ``process``); lockstep takes none and silently
    ignores them — the knobs configure real fabrics, the emulation has
    nothing to configure."""
    if resolve_name(name) == "process":
        return process_backend.ProcessTransport(domains, **opts)
    return LockstepComm(domains)
