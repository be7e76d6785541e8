import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis import preconditioned_spectrum
from repro.experiments.workloads import swjapan_problem
from repro.fem.model import build_contact_problem
from repro.precond import DiagonalScaling, bic, sb_bic0


class TestSpectrum:
    def test_identity_preconditioner_on_diagonal_matrix(self):
        d = np.array([1.0, 2.0, 4.0])
        a = sp.diags(d).tocsr()
        m = DiagonalScaling(a)
        s = preconditioned_spectrum(a, m)
        # M = diag(A) exactly -> all eigenvalues of M^-1 A are 1
        assert np.isclose(s.emin, 1.0) and np.isclose(s.emax, 1.0)
        assert np.isclose(s.kappa, 1.0)

    def test_diag_scaling_known_spectrum(self):
        a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        s = preconditioned_spectrum(a, DiagonalScaling(a))
        assert np.isclose(s.emin, 0.5)
        assert np.isclose(s.emax, 1.5)

    def test_ic_clusters_near_one(self, block_problem_small):
        p = block_problem_small
        s = preconditioned_spectrum(p.a, bic(p.a, fill_level=1), dense_threshold=2000)
        assert 0.05 < s.emin < 1.5
        assert 0.5 < s.emax < 3.0

    def test_kappa_lambda_scaling_bic0(self, block_mesh_small):
        kappas = []
        for lam in (1e2, 1e6):
            prob = build_contact_problem(block_mesh_small, penalty=lam)
            s = preconditioned_spectrum(prob.a, bic(prob.a, fill_level=0), dense_threshold=2000)
            kappas.append(s.kappa)
        assert kappas[1] > 1e3 * kappas[0]

    def test_sb_kappa_flat(self, block_mesh_small):
        kappas = []
        for lam in (1e2, 1e6):
            prob = build_contact_problem(block_mesh_small, penalty=lam)
            m = sb_bic0(prob.a, prob.groups)
            s = preconditioned_spectrum(prob.a, m, dense_threshold=2000)
            kappas.append(s.kappa)
        assert 0.3 < kappas[1] / kappas[0] < 3.0

    def test_sb_emax_holds_at_extreme_penalty(self):
        """The dense path works from M^-1, not from a materialized M whose
        ~lambda entries beside ~1 ones round the extremes off: SB-BIC(0)
        on swjapan 0.5 has the same Emax at lambda = 1e6 and 1e10."""
        emax = []
        for lam in (1e6, 1e10):
            p = swjapan_problem(0.5, lam)
            emax.append(preconditioned_spectrum(p.a, sb_bic0(p.a, p.groups)).emax)
        assert emax[1] == pytest.approx(emax[0], rel=0.01)

    def test_lanczos_path_agrees_with_dense(self, block_problem_small):
        p = block_problem_small
        m = sb_bic0(p.a, p.groups)
        dense = preconditioned_spectrum(p.a, m, dense_threshold=10**9)
        lanczos = preconditioned_spectrum(p.a, m, dense_threshold=0)
        assert np.isclose(dense.emax, lanczos.emax, rtol=1e-3)
        assert np.isclose(dense.emin, lanczos.emin, rtol=1e-2)

    def test_unsupported_preconditioner(self):
        from repro.precond.base import IdentityPreconditioner

        a = sp.eye(3).tocsr()
        with pytest.raises(TypeError):
            preconditioned_spectrum(a, IdentityPreconditioner())

    def test_repr(self):
        a = sp.eye(3).tocsr()
        s = preconditioned_spectrum(a, DiagonalScaling(a))
        assert "kappa" in repr(s)
