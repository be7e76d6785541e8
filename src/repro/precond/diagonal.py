"""Point-Jacobi (diagonal scaling) preconditioning — Table 2's baseline."""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro.precond.base import Preconditioner
from repro.utils.validate import check_square_csr


class DiagonalScaling(Preconditioner):
    """``M = diag(A)``; the weakest (and cheapest) preconditioner.

    The paper uses it as the degenerate end of the localized-ILU family:
    with one domain per DOF, localized IC(0) *is* diagonal scaling.
    """

    name = "Diagonal"

    def __init__(self, a: sp.spmatrix | sp.sparray) -> None:
        self.refactor(a)

    def refactor(self, a: sp.spmatrix | sp.sparray) -> "DiagonalScaling":
        """Re-read the diagonal of *a* — the whole set-up, there is no
        pattern phase to keep.  Returns ``self``, like the IC families'
        values-only ``refactor``."""
        t0 = time.perf_counter()
        a = check_square_csr(a)
        d = a.diagonal()
        if (d == 0).any():
            raise ValueError("matrix has zero diagonal entries; cannot diagonal-scale")
        self._dinv = 1.0 / d
        self.setup_seconds = time.perf_counter() - t0
        return self

    def apply(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``z = D^{-1} r``; passing ``out`` reuses the caller's buffer."""
        return np.multiply(self._dinv, r, out=out)

    def apply_block(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``Z = M^{-1} R`` for an ``(ndof, s)`` block of residuals: each
        column scaled exactly as :meth:`apply` scales a vector."""
        return np.multiply(self._dinv[:, None], r, out=out)

    def memory_bytes(self) -> int:
        return self._dinv.nbytes
