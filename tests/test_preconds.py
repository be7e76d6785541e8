"""Preconditioner wrappers on the real FEM contact problems."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.fem.model import build_contact_problem
from repro.precond import DiagonalScaling, bic, sb_bic0, scalar_ic0
from repro.solvers.cg import cg_solve


def _solve(prob, m, max_iter=8000):
    return cg_solve(prob.a, prob.b, m, max_iter=max_iter)


class TestAllPrecondsSolveCorrectly:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda p: DiagonalScaling(p.a),
            lambda p: scalar_ic0(p.a),
            lambda p: bic(p.a, fill_level=0),
            lambda p: bic(p.a, fill_level=1),
            lambda p: sb_bic0(p.a, p.groups),
        ],
        ids=["diag", "ic0", "bic0", "bic1", "sbbic0"],
    )
    def test_block_problem(self, block_problem_small, block_reference, maker):
        res = _solve(block_problem_small, maker(block_problem_small))
        assert res.converged
        err = np.linalg.norm(res.x - block_reference) / np.linalg.norm(block_reference)
        assert err < 1e-6

    def test_swjapan_sbbic(self, swj_problem_small):
        res = _solve(swj_problem_small, sb_bic0(swj_problem_small.a, swj_problem_small.groups))
        assert res.converged
        ref = spla.spsolve(swj_problem_small.a.tocsc(), swj_problem_small.b)
        assert np.linalg.norm(res.x - ref) / np.linalg.norm(ref) < 1e-6


class TestPaperOrderings:
    def test_iteration_ranking(self, block_problem_small):
        """BIC(1) < SB-BIC(0) < BIC(0) iterations (Table 2 ordering)."""
        its = {}
        for name, m in [
            ("bic0", bic(block_problem_small.a, fill_level=0)),
            ("bic1", bic(block_problem_small.a, fill_level=1)),
            ("sb", sb_bic0(block_problem_small.a, block_problem_small.groups)),
        ]:
            its[name] = _solve(block_problem_small, m).iterations
        assert its["bic1"] <= its["sb"] <= its["bic0"]

    def test_sb_lambda_independence(self, block_mesh_small):
        iters = []
        for lam in (1e2, 1e8):
            prob = build_contact_problem(block_mesh_small, penalty=lam)
            m = sb_bic0(prob.a, prob.groups)
            iters.append(_solve(prob, m).iterations)
        assert abs(iters[1] - iters[0]) <= max(2, 0.05 * iters[0])

    def test_bic0_lambda_degradation(self, block_mesh_small):
        iters = []
        for lam in (1e2, 1e8):
            prob = build_contact_problem(block_mesh_small, penalty=lam)
            iters.append(_solve(prob, bic(prob.a, fill_level=0)).iterations)
        assert iters[1] > 1.5 * iters[0]

    def test_memory_ranking(self, block_problem_small):
        p = block_problem_small
        mem = {
            "bic0": bic(p.a, fill_level=0).memory_bytes(),
            "bic1": bic(p.a, fill_level=1).memory_bytes(),
            "bic2": bic(p.a, fill_level=2).memory_bytes(),
            "sb": sb_bic0(p.a, p.groups).memory_bytes(),
        }
        assert mem["sb"] < 1.5 * mem["bic0"]
        assert mem["bic0"] < mem["bic1"] < mem["bic2"]

    def test_sb_beats_bic0_on_stiff_problem(self, block_problem_stiff):
        p = block_problem_stiff
        it_sb = _solve(p, sb_bic0(p.a, p.groups)).iterations
        it_b0 = _solve(p, bic(p.a, fill_level=0)).iterations
        assert it_sb < it_b0 / 2

    def test_color_count_changes_schedule_not_solution(self, block_problem_small):
        p = block_problem_small
        sols = []
        for nc in (2, 8, 32):
            m = sb_bic0(p.a, p.groups, ncolors=nc)
            sols.append(_solve(p, m).x)
        for s in sols[1:]:
            assert np.allclose(s, sols[0], atol=1e-5)



class TestWrapperValidation:
    def test_bic_requires_block_multiple(self):
        import scipy.sparse as sp

        with pytest.raises(ValueError, match="multiple"):
            bic(sp.eye(10).tocsr(), fill_level=0)

    def test_sbbic_requires_block_multiple(self):
        import scipy.sparse as sp

        with pytest.raises(ValueError, match="multiple"):
            sb_bic0(sp.eye(10).tocsr(), [])

    def test_diagonal_rejects_zero_diag(self):
        import scipy.sparse as sp

        a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="zero diagonal"):
            DiagonalScaling(a)

    def test_names(self, block_problem_small):
        p = block_problem_small
        assert bic(p.a, fill_level=2).name == "BIC(2)"
        assert sb_bic0(p.a, p.groups).name == "SB-BIC(0)"
        assert scalar_ic0(p.a).name == "IC(0) scalar"


class TestFamilyTable:
    """One table names the families for the CLI, the serve protocol, the
    policy and the ladder (repro.precond.families)."""

    def test_every_protocol_name_builds_and_maps_back(self, block_problem_small):
        from repro.precond import FAMILY_TABLE, ladder_families
        from repro.serve.protocol import PRECONDS

        p = block_problem_small
        assert PRECONDS[-1] == "auto" and set(PRECONDS[:-1]) == set(FAMILY_TABLE)
        family_of_label = {f.stage: f.name for f in FAMILY_TABLE.values()}
        for name in PRECONDS[:-1]:
            family = FAMILY_TABLE[name]
            m = family.build(p.a, p.groups)
            # the built object's label maps back to the one family
            assert family_of_label[m.name] == name
            # the table says which families keep a pattern phase to cache
            assert hasattr(m, "symbolic") == family.has_symbolic
            assert m.refactor(p.a) is m  # every family rebuilds values in place
            assert _solve(p, m).converged
        # the ladder order only names families of the table
        for n_groups, block_ok in ((4, True), (0, True), (4, False)):
            assert set(ladder_families(n_groups, block_ok)) < set(FAMILY_TABLE)

    def test_apply_into_out_returns_it_with_the_values_of_apply(self, block_problem_small):
        """Every family's ``apply`` (and plain CG's identity) takes
        ``out=``, so CG recycles ``z`` whatever the family is."""
        from repro.precond import FAMILY_TABLE, IdentityPreconditioner
        from repro.solvers.cg import _supports_out

        p = block_problem_small
        r = np.random.default_rng(3).normal(size=p.ndof)
        for m in [IdentityPreconditioner()] + [
            family.build(p.a, p.groups) for family in FAMILY_TABLE.values()
        ]:
            assert _supports_out(m.apply), m.name
            z = np.full(p.ndof, np.nan)
            assert m.apply(r, out=z) is z
            assert np.array_equal(z, m.apply(r)), m.name
