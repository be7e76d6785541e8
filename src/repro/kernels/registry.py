"""Kernel backend registry: selection, fallback, warmup.

A *backend* is a module exposing the uniform kernel interface
(``apply_substitution``, ``csr_matvec``, ``csr_matvecs``, ``bcsr_matvec``,
``vbr_matvec``, ``dmod_update``, ``full_update``, ``warmup``,
``is_available``, ``NAME``).
The registry resolves which backend serves a call:

1. explicit per-call argument (``get_backend("numpy")``),
2. process-wide :func:`set_backend` (CLI ``--kernel-backend``),
3. the ``REPRO_KERNEL_BACKEND`` environment variable,
4. ``auto``: numba when importable, numpy otherwise.

Requesting numba in an environment without it is not an error: the
registry logs one warning and serves numpy — optional acceleration must
never become a hard dependency (SNIPPETS.md Snippet 2's guarded-import
idiom).  The precedence and the warn-once fallback are
:class:`repro.utils.selection.Selection`, shared with the transport
registry.  A resolution reads the environment, validates the name and
probes availability, so the hot paths resolve once where a unit of work
starts, not per kernel call: ``cg_solve`` / ``block_cg_solve`` / each
``parallel_cg`` rank program pick the backend of ``A p`` when the solve
starts, and ``BlockICFactorization.refactor`` picks the one its update
sweeps and every following ``apply`` run on (recorded as
``kernel_backend``).  A switch therefore takes effect at the next solve
and, for a factorization that already exists, at its next ``refactor``.
"""

from __future__ import annotations

from repro.kernels import numba_backend, numpy_backend
from repro.utils.selection import Selection

__all__ = [
    "ENV_VAR",
    "active_backend",
    "available_backends",
    "describe",
    "get_backend",
    "reset",
    "resolve_name",
    "set_backend",
    "warmup",
]

ENV_VAR = "REPRO_KERNEL_BACKEND"

_BACKENDS = {"numpy": numpy_backend, "numba": numba_backend}
_SELECTION = Selection(
    "kernel backend",
    ENV_VAR,
    # looked up per call, so a test can flip a backend's availability
    {name: (lambda mod=mod: mod.is_available()) for name, mod in _BACKENDS.items()},
    default="auto",
    fallback="numpy",
    logger="repro.kernels",
    missing="not importable (pip install 'repro[jit]' to enable numba)",
    auto=("numba", "numpy"),
)

available_backends = _SELECTION.available_names
"""Names of the backends importable in this environment."""

resolve_name = _SELECTION.resolve
"""Resolve the backend *name* (or the configured default) to an
available backend, falling back from numba to numpy with one logged
warning when numba is not importable."""

set_backend = _SELECTION.set
"""Set the process-wide backend; ``None``/"auto" restores auto.  Returns
the name that will actually serve calls (after fallback)."""

reset = _SELECTION.reset


def get_backend(name: str | None = None):
    """The backend module serving *name* (default: configured/auto)."""
    return _BACKENDS[resolve_name(name)]


def active_backend() -> str:
    """Resolved name of the backend that will serve the next call."""
    return resolve_name()


def warmup(name: str | None = None) -> dict:
    """One-time JIT warmup of the resolved backend.

    Call before timing anything: JIT compile time is paid here (or never,
    when ``cache=True`` artifacts exist), not inside solves or benches.
    """
    resolved = resolve_name(name)
    return {"backend": resolved, "seconds": float(_BACKENDS[resolved].warmup())}


def describe() -> dict:
    """Environment census for bench metadata and obs span attributes."""
    info = _SELECTION.describe()
    if numba_backend.is_available():
        import numba

        info["numba_version"] = numba.__version__
        info["num_threads"] = int(numba.get_num_threads())
    return info
