"""Multi-RHS block CG: parity with per-column CG, deflation, breakdown."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.precond import DiagonalScaling, sb_bic0
from repro.precond.base import IdentityPreconditioner
from repro.solvers import block_cg_solve, cg_solve
from repro.resilience.taxonomy import SolveReport


def _rhs_block(ndof: int, s: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((ndof, s))


class TestParity:
    def test_matches_per_column_cg(self, block_problem_small):
        p = block_problem_small
        m = sb_bic0(p.a, p.groups)
        b = _rhs_block(p.ndof, 4, seed=1)
        res = block_cg_solve(p.a, b, m, eps=1e-12)
        assert res.converged
        for j in range(4):
            ref = cg_solve(p.a, b[:, j], m, eps=1e-12)
            err = np.linalg.norm(res.x[:, j] - ref.x) / np.linalg.norm(ref.x)
            assert err < 1e-9, f"column {j}: {err}"

    def test_single_column_matches_cg_shape(self, block_problem_small):
        p = block_problem_small
        m = sb_bic0(p.a, p.groups)
        res = block_cg_solve(p.a, p.b, m, eps=1e-10)  # 1-D rhs round-trips
        ref = cg_solve(p.a, p.b, m, eps=1e-10)
        assert res.x.shape == (p.ndof,)
        err = np.linalg.norm(res.x - ref.x) / np.linalg.norm(ref.x)
        assert err < 1e-8

    def test_true_residuals(self, block_problem_small):
        p = block_problem_small
        m = sb_bic0(p.a, p.groups)
        b = _rhs_block(p.ndof, 3, seed=2)
        res = block_cg_solve(p.a, b, m, eps=1e-10)
        r = b - p.a @ res.x
        rel = np.linalg.norm(r, axis=0) / np.linalg.norm(b, axis=0)
        assert (rel < 1e-8).all()


class TestDeflation:
    def test_mixed_difficulty_deflates(self, block_problem_small):
        """An easy (preconditioner-aligned) column converges early and is
        deflated; the rest keep iterating to their own tolerance."""
        p = block_problem_small
        m = sb_bic0(p.a, p.groups)
        rng = np.random.default_rng(3)
        easy = p.a @ m.apply(rng.standard_normal(p.ndof))  # ~1-step column
        hard = rng.standard_normal((p.ndof, 3))
        b = np.column_stack([easy, *hard.T])
        res = block_cg_solve(p.a, b, m, eps=1e-11)
        assert res.converged
        assert res.deflations >= 1
        assert res.column_iterations[0] <= min(res.column_iterations[1:])
        r = b - p.a @ res.x
        rel = np.linalg.norm(r, axis=0) / np.linalg.norm(b, axis=0)
        assert (rel < 1e-9).all()

    def test_duplicate_columns(self, block_problem_small):
        """Linearly dependent RHS columns exercise the lstsq fallback and
        still produce the right answers for every copy."""
        p = block_problem_small
        m = sb_bic0(p.a, p.groups)
        col = _rhs_block(p.ndof, 1, seed=4)[:, 0]
        b = np.column_stack([col, col, col])
        res = block_cg_solve(p.a, b, m, eps=1e-10)
        r = b - p.a @ res.x
        rel = np.linalg.norm(r, axis=0) / np.linalg.norm(b, axis=0)
        assert (rel < 1e-8).all()

    def test_zero_rhs_column(self, block_problem_small):
        p = block_problem_small
        m = sb_bic0(p.a, p.groups)
        b = _rhs_block(p.ndof, 2, seed=5)
        b[:, 0] = 0.0
        res = block_cg_solve(p.a, b, m, eps=1e-10)
        assert res.converged
        assert np.linalg.norm(res.x[:, 0]) < 1e-12


class TestFailureModes:
    def test_nonfinite_rhs_rejected(self, block_problem_small):
        p = block_problem_small
        b = _rhs_block(p.ndof, 2)
        b[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            block_cg_solve(p.a, b)

    def test_max_iter_reports_not_converged(self, block_problem_small):
        p = block_problem_small
        b = _rhs_block(p.ndof, 2, seed=6)
        res = block_cg_solve(p.a, b, DiagonalScaling(p.a), eps=1e-14, max_iter=3)
        assert not res.converged
        assert res.iterations == 3

    def test_indefinite_breakdown_detected(self):
        a = sp.identity(12, format="csr") * -1.0  # negative definite
        b = np.ones((12, 2))
        report = SolveReport()
        res = block_cg_solve(a, b, eps=1e-10, report=report)
        assert not res.converged
        assert res.reason is not None
        assert report.events

    def test_report_and_history(self, block_problem_small):
        p = block_problem_small
        m = sb_bic0(p.a, p.groups)
        b = _rhs_block(p.ndof, 2, seed=7)
        report = SolveReport()
        res = block_cg_solve(p.a, b, m, eps=1e-10, record_history=True, report=report)
        assert res.converged
        assert len(res.history) == res.iterations + 1
        assert res.nrhs == 2


class TestApplyBlock:
    def test_apply_block_matches_columns(self, block_problem_small):
        """Every preconditioner a block solve can meet (the IC families,
        diagonal scaling, none) treats each column of a block exactly as
        ``apply`` treats it alone."""
        p = block_problem_small
        r = _rhs_block(p.ndof, 5, seed=8)
        for m in (sb_bic0(p.a, p.groups), DiagonalScaling(p.a), IdentityPreconditioner()):
            out = np.empty_like(r)
            assert m.apply_block(r, out=out) is out
            for z_block in (out, m.apply_block(r)):
                for j in range(5):
                    np.testing.assert_array_equal(z_block[:, j], m.apply(r[:, j].copy()))

    def test_apply_block_1d_passthrough(self, block_problem_small):
        p = block_problem_small
        m = sb_bic0(p.a, p.groups)
        r = _rhs_block(p.ndof, 1, seed=9)[:, 0]
        np.testing.assert_array_equal(m.apply_block(r), m.apply(r.copy()))

    def test_apply_block_bad_shape(self, block_problem_small):
        p = block_problem_small
        m = sb_bic0(p.a, p.groups)
        with pytest.raises(ValueError):
            m.apply_block(np.zeros((p.ndof + 3, 2)))
