"""The solver's hot-loop kernels, called directly.

The Earth Simulator results of the paper hinge on vectorized execution
of the forward/backward substitution sweeps of the IC-family
preconditioners (section 4.2's colour-wise independent rows) and of the
sparse matrix-vector products.  Here both are direct calls of scipy's
compiled CSR kernels (:mod:`repro.kernels.sweeps`) over one flat
execution plan (:mod:`repro.kernels.plans`): structure fixed by the
symbolic phase, data refilled in place by every numeric phase.

``bench/run.py --trace 1`` tracks the kernels against the host roofline
(``kernels.substitution_roofline_frac``, ``precond.apply_s_per_call``).
"""

import scipy

from repro.kernels import sweeps, team
from repro.kernels.plans import FlatSweep, SubstitutionPlan
from repro.kernels.sweeps import (
    apply_substitution,
    apply_substitution_block,
    csr_matvec,
    csr_matvecs,
)
from repro.kernels.team import team_for

__all__ = [
    "FlatSweep",
    "SubstitutionPlan",
    "apply_substitution",
    "apply_substitution_block",
    "csr_matvec",
    "csr_matvecs",
    "describe",
    "get_backend",
    "team_for",
]


def get_backend():
    """The :mod:`~repro.kernels.sweeps` module.

    Exists for ``bench/workloads/common.py``, which calls
    ``kernels.get_backend().csr_matvec``; a later benchmark change can
    call :func:`csr_matvec` directly and delete this.
    """
    return sweeps


def describe() -> dict:
    """What serves the kernels, for the metadata of a bench result:
    which kernels, which scipy, and how many processes a solve above
    :data:`~repro.kernels.team.TEAM_NNZ` runs its products and sweeps on
    in this process (the key kept its name from when the second worker
    was a thread).

    Exists for ``bench/run.py``, which stamps it into every result.
    """
    return {
        "kernels": "scipy.sparse._sparsetools",
        "scipy": scipy.__version__,
        "matvec_threads": team.size(),
    }
