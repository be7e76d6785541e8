"""Two-level (coarse-corrected) localized preconditioning.

The paper's conclusion flags the weakness of pure localization —
iterations grow with the domain count, and keeping whole contact groups
per domain may become impossible at scale — and points to *multilevel
methods* (ref. [24], BILUTM) as future work.  This module implements the
classical cure: augment the domain-wise (block Jacobi) preconditioner
with a *balancing* coarse-grid correction over one aggregate per
(domain x displacement component).  With ``Q = R^T (R A R^T)^{-1} R``,

    M^{-1} = Q + (I - Q A) M_loc^{-1} (I - A Q),

the symmetric "balancing Neumann-Neumann" form, which is SPD and
guaranteed not to worsen the CG convergence: it projects out exactly the
low-frequency error components the localized sweep cannot see.  The
ablation benchmark shows the iteration growth of Table 1 flattening once
the coarse space is added.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro.precond.base import Preconditioner
from repro.precond.localized import LocalizedPreconditioner, PrecondFactory
from repro.utils.validate import check_index_array, check_square_csr


def aggregation_operator(node_domain: np.ndarray, b: int = 3) -> sp.csr_matrix:
    """Piecewise-constant restriction: one coarse DOF per (domain, component).

    ``R`` has shape ``(ndomains * b, n_nodes * b)``; each row averages
    one displacement component over one domain's nodes.
    """
    node_domain = np.asarray(node_domain, dtype=np.int64)
    check_index_array(node_domain, int(node_domain.max()) + 1, "node_domain")
    n_nodes = node_domain.size
    ndom = int(node_domain.max()) + 1
    rows = (node_domain[:, None] * b + np.arange(b)).reshape(-1)
    cols = (np.arange(n_nodes)[:, None] * b + np.arange(b)).reshape(-1)
    counts = np.bincount(node_domain, minlength=ndom).astype(np.float64)
    data = (1.0 / counts[node_domain])[:, None].repeat(b, axis=1).reshape(-1)
    return sp.csr_matrix((data, (rows, cols)), shape=(ndom * b, n_nodes * b))


class TwoLevelPreconditioner(Preconditioner):
    """Localized preconditioner plus additive coarse correction."""

    def __init__(
        self,
        a,
        node_domain: np.ndarray,
        factory: PrecondFactory,
        b: int = 3,
        name: str = "two-level",
    ) -> None:
        import scipy.sparse.linalg as spla  # only the coarse solve needs it

        t0 = time.perf_counter()
        a = check_square_csr(a)
        self.name = name
        self._a = a
        self._local = LocalizedPreconditioner(a, node_domain, factory, b=b)
        self._r = aggregation_operator(np.asarray(node_domain), b=b)
        a_coarse = (self._r @ a @ self._r.T).tocsc()
        self._coarse_solve = spla.factorized(a_coarse)
        self.setup_seconds = time.perf_counter() - t0

    def _coarse_apply(self, r: np.ndarray) -> np.ndarray:
        """``Q r = R^T (R A R^T)^{-1} R r``."""
        return self._r.T @ self._coarse_solve(self._r @ r)

    def apply(self, r: np.ndarray) -> np.ndarray:
        qr = self._coarse_apply(r)
        z1 = self._local.apply(r - self._a @ qr)
        return qr + z1 - self._coarse_apply(self._a @ z1)

    def memory_bytes(self) -> int:
        return self._local.memory_bytes() + self._r.data.nbytes
