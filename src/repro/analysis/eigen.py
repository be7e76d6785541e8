"""Eigenvalue analysis of the preconditioned operator (Appendix A).

The paper estimates preconditioner robustness from the extreme
eigenvalues of ``M^{-1} A``: for SPD ``A`` and ``M`` they are real and
the spectral condition number is ``kappa = Emax / Emin``.  We compute
them exactly (dense, from ``M^{-1}``) for small systems, and for larger
ones by Lanczos on the equivalent generalized symmetric problem
``A x = mu M x`` (``eigsh`` with the factorization's ``M``/``M^{-1}``
actions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from repro.precond.base import Preconditioner
from repro.precond.diagonal import DiagonalScaling
from repro.precond.icfact import BlockICFactorization
from repro.utils.validate import check_square_csr


@dataclass
class EigenSummary:
    """Extreme eigenvalues of ``M^{-1} A`` and the condition number."""

    emin: float
    emax: float

    @property
    def kappa(self) -> float:
        return self.emax / self.emin if self.emin > 0 else np.inf

    def __repr__(self) -> str:
        return f"EigenSummary(Emin={self.emin:.6e}, Emax={self.emax:.6e}, kappa={self.kappa:.6e})"


def _m_actions(precond: Preconditioner, n: int):
    """(M action, M^{-1} action) linear operators for a preconditioner."""
    if isinstance(precond, BlockICFactorization):
        m = spla.LinearOperator((n, n), matvec=precond.apply_m)
        minv = spla.LinearOperator((n, n), matvec=precond.apply)
        return m, minv
    if isinstance(precond, DiagonalScaling):
        d = 1.0 / precond._dinv
        m = spla.LinearOperator((n, n), matvec=lambda v: d * v)
        minv = spla.LinearOperator((n, n), matvec=precond.apply)
        return m, minv
    raise TypeError(
        f"eigen analysis not implemented for {type(precond).__name__}"
    )


def preconditioned_spectrum(
    a,
    precond: Preconditioner,
    *,
    dense_threshold: int = 1500,
    tol: float = 1e-8,
) -> EigenSummary:
    """Extreme eigenvalues of ``M^{-1} A``.

    Systems up to ``dense_threshold`` DOF are solved exactly: with
    ``A = L L^T`` (dense Cholesky), ``M^{-1} A`` is similar to the
    symmetric ``L^T M^{-1} L``, whose ``M^{-1}`` is materialized column
    by column from the preconditioner's own ``apply``.  ``M`` itself is
    never formed: at high penalty it holds entries ~``lambda`` beside
    entries ~1, and the generalized problem ``A x = mu M x`` then reads
    round-off in the extreme eigenvalues.  Larger systems use Lanczos at
    both ends of the spectrum.
    """
    a = check_square_csr(a)
    n = a.shape[0]
    m_op, minv_op = _m_actions(precond, n)

    if n <= dense_threshold:
        minv = np.empty((n, n))
        eye = np.eye(n)
        for j in range(n):
            minv[:, j] = minv_op @ eye[:, j]
        chol = np.linalg.cholesky(a.toarray())
        vals = np.linalg.eigvalsh(chol.T @ (0.5 * (minv + minv.T)) @ chol)
        return EigenSummary(emin=float(vals[0]), emax=float(vals[-1]))

    kwargs = dict(M=m_op, Minv=minv_op, tol=tol, return_eigenvectors=False)
    emax = float(spla.eigsh(a, k=1, which="LA", **kwargs)[0])
    emin = float(spla.eigsh(a, k=1, which="SA", **kwargs)[0])
    return EigenSummary(emin=emin, emax=emax)
