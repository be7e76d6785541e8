"""Coarse correction: the multilevel cure the paper's conclusion names.

Localized preconditioning needs more iterations as domains are added
(Table 1), and the conclusion points to multilevel methods (ref. [24]).
:class:`CoarseCorrection` wraps any preconditioner ``M`` in the A-DEF2
form of Tang, Nabben, Vuik and Erlangga (2009): ``y = M^{-1} r``, then
``z = y + Q (r - A y)`` with ``Q = R^T (R A R^T)^{-1} R``, one ``A``
product and one coarse solve per apply.  CG converges with it only from
``x̄ + Q (b - A x̄)``: :meth:`CoarseCorrection.start`, which
:func:`~repro.solvers.cg.cg_solve` applies to every start iterate.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro.precond.base import Preconditioner
from repro.utils.validate import check_index_array, check_square_csr


def rigid_body_operator(coords, aggregate, fixed_dofs) -> sp.csr_matrix:
    """``R`` of shape ``(6 n_agg, 3 n_nodes)``: rows ``6g .. 6g+5``
    translate aggregate *g*'s nodes along x, y, z and rotate them about x,
    y, z through their centroid; the columns of *fixed_dofs* are zero.

    Aggregates must keep contact groups whole, as contact-aware domains
    do: on RCB aggregates that cut groups (4 of them, BIC(0)) the six
    modes took 281 and 686 iterations at λ=1e4 and 1e8, the three
    translations alone 231 and 491.
    """
    aggregate = check_index_array(np.asarray(aggregate), len(coords), "aggregate")
    counts = np.bincount(aggregate)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise ValueError(f"aggregate {empty[0]} is empty")
    sums = np.stack([np.bincount(aggregate, c) for c in coords.T], 1)
    dx, dy, dz = (coords - (sums / counts[:, None])[aggregate]).T
    o, z = np.ones_like(dx), np.zeros_like(dx)
    # modes[k, c]: mode k's displacement component c at every node
    modes = np.array([[o, z, z], [z, o, z], [z, z, o], [z, -dz, dy], [dz, z, -dx], [-dy, dx, z]])
    rows = np.broadcast_to(aggregate * 6 + np.arange(6)[:, None, None], modes.shape)
    cols = np.broadcast_to(np.arange(aggregate.size) * 3 + np.arange(3)[:, None], modes.shape)
    keep = (modes != 0) & ~np.isin(cols, fixed_dofs)
    shape = (6 * len(sums), 3 * aggregate.size)
    return sp.csr_matrix((modes[keep], (rows[keep], cols[keep])), shape=shape)


class CoarseCorrection(Preconditioner):
    """*m* plus the A-DEF2 correction over the rows of *r*."""

    def __init__(self, a, m: Preconditioner, r: sp.csr_matrix) -> None:
        import scipy.sparse.linalg as spla  # only the coarse solve needs it

        t0 = time.perf_counter()
        self._a, self._m, self._r = check_square_csr(a), m, sp.csr_matrix(r)
        self._coarse_solve = spla.factorized((self._r @ self._a @ self._r.T).tocsc())
        self.name = f"{m.name}+coarse"
        self.setup_seconds = m.setup_seconds + time.perf_counter() - t0

    def _q(self, v: np.ndarray) -> np.ndarray:
        """``Q v = R^T (R A R^T)^{-1} R v``."""
        return self._r.T @ self._coarse_solve(self._r @ v)

    def start(self, b: np.ndarray, x0: np.ndarray | None) -> np.ndarray:
        return self._q(b) if x0 is None else x0 + self._q(b - self._a @ x0)

    def apply(self, r: np.ndarray) -> np.ndarray:
        y = self._m.apply(r)
        return y + self._q(r - self._a @ y)

    def memory_bytes(self) -> int:
        return self._m.memory_bytes() + self._r.data.nbytes
