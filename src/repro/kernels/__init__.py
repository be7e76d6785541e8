"""Multi-backend kernel registry for the solver hot paths.

The Earth Simulator results of the paper hinge on vectorized,
multi-pipeline execution of three kernel families: the forward/backward
substitution sweeps of the IC-family preconditioners (section 4.2's
color-wise independent rows), the block sparse matrix-vector products,
and the color-bucketed numeric factorization updates.  This package owns
those kernels behind a tiny registry with two interchangeable backends:

- ``numpy`` — batched/bucketed numpy for the factorization updates and
  direct calls of scipy's compiled CSR kernels for the sweeps and the
  matvecs (always available; the fallback and the parity baseline);
- ``numba`` — flat-array ``@njit(parallel=True, cache=True)`` kernels
  that dispatch independent color groups to ``prange`` workers, giving
  true multi-core execution within a rank.  numba is an *optional*
  dependency (``pip install 'repro[jit]'``); its import is guarded and
  the registry silently falls back to numpy (with one logged warning)
  when it is absent — exactly the guarded-import idiom of SNIPPETS.md
  Snippet 2.

Backend selection precedence (first match wins):

1. explicit per-call argument: ``kernels.get_backend("numba")``;
2. explicit process-wide API: ``kernels.set_backend("numpy")`` (the CLI
   ``--kernel-backend`` flag lands here);
3. the ``REPRO_KERNEL_BACKEND`` environment variable;
4. ``auto`` — numba when importable, else numpy.

Both backends sweep the same :class:`SubstitutionPlan`
(:mod:`repro.kernels.plans`): one flat layout, structure fixed by the
symbolic phase, data refilled in place by every numeric phase.

JIT compilation is paid once per process (or never, thanks to
``cache=True``): call :func:`warmup` before timing anything so compile
time never pollutes solves or benchmarks.  The ``repro.obs`` spans
record which backend actually ran; ``bench/run.py --trace 1`` tracks the
kernels against the host roofline (``kernels.substitution_roofline_frac``,
``precond.apply_s_per_call``).
"""

from repro.kernels.plans import FlatSweep, SubstitutionPlan
from repro.kernels.registry import (
    ENV_VAR,
    active_backend,
    available_backends,
    describe,
    get_backend,
    reset,
    resolve_name,
    set_backend,
    warmup,
)

__all__ = [
    "ENV_VAR",
    "FlatSweep",
    "SubstitutionPlan",
    "active_backend",
    "available_backends",
    "describe",
    "get_backend",
    "reset",
    "resolve_name",
    "set_backend",
    "warmup",
]
