"""Sparse storage schemes used by the GeoFEM-style solver stack.

- :class:`~repro.sparse.bcsr.BCSRMatrix` — uniform 3x3 block CSR, the
  assembly-level format (one block per finite-element node pair).
- :class:`~repro.sparse.vbr.VBRMatrix` — variable block row storage for
  selective blocks (super-nodes); the factorization engine operates here.
- :mod:`~repro.sparse.djds` — descending-order jagged diagonal storage
  (DJDS/PDJDS) and the loop-length / imbalance / dummy-padding statistics
  that feed the Earth Simulator performance model.
"""

from repro.sparse.bcsr import BCSRMatrix
from repro.sparse.vbr import VBRMatrix
from repro.sparse.djds import DJDSMatrix, DJDSStatistics, build_djds

__all__ = [
    "BCSRMatrix",
    "VBRMatrix",
    "DJDSMatrix",
    "DJDSStatistics",
    "build_djds",
]
