"""Krylov solvers: the conjugate-gradient family only.

Frictionless penalty contact gives a symmetric positive definite matrix
(paper section 5.1), so CG is the one Krylov method the package needs.

- :func:`~repro.solvers.cg.cg_solve` — preconditioned conjugate
  gradients; the iteration itself is :func:`~repro.solvers.cg.cg_program`,
  which :func:`~repro.parallel.distributed.parallel_cg` runs per domain.
- :func:`~repro.solvers.block_cg.block_cg_solve` — multi-RHS block CG
  with deflation of converged columns; the serve layer's batched solver.
"""

from repro.solvers.block_cg import BlockCGResult, block_cg_solve
from repro.solvers.cg import CGResult, cg_solve
from repro.solvers.history import ConvergenceProfile, analyze_history

__all__ = [
    "CGResult",
    "cg_solve",
    "BlockCGResult",
    "block_cg_solve",
    "ConvergenceProfile",
    "analyze_history",
]
