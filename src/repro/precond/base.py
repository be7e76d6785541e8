"""Preconditioner interface shared by the solver and analysis modules."""

from __future__ import annotations

import numpy as np


class Preconditioner:
    """Abstract action ``z = M^{-1} r`` plus bookkeeping for the benches.

    Subclasses set :attr:`name`, :attr:`setup_seconds` and implement
    :meth:`apply` and :meth:`memory_bytes`.
    """

    name: str = "none"
    setup_seconds: float = 0.0

    def apply(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def start(self, b: np.ndarray, x0: np.ndarray | None) -> np.ndarray | None:
        """The start iterate CG needs from the caller's *x0* (``None``: zero)."""
        return x0

    def memory_bytes(self) -> int:
        """Storage attributable to the preconditioner (Table 2 census)."""
        return 0

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self.apply(r)


class IdentityPreconditioner(Preconditioner):
    """No preconditioning (plain CG)."""

    name = "identity"

    def apply(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``z = r``, a copy; passing ``out`` reuses the caller's buffer."""
        if out is None:
            return r.copy()
        out[...] = r
        return out

    def apply_block(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``Z = R`` for an ``(ndof, s)`` block of residuals."""
        return self.apply(r, out)
