"""Failure injection: degenerate inputs and breakdown paths."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem.generators import box_mesh
from repro.fem.model import build_contact_problem
from repro.parallel import partition_nodes_rcb
from repro.precond import DiagonalScaling, LocalizedPreconditioner, bic
from repro.precond.icfact import BlockICFactorization
from repro.reorder import adjacency_from_pattern, multicolor
from repro.solvers.cg import cg_solve
from repro.sparse.djds import build_djds
from repro.sparse.vbr import VBRMatrix


class TestSolverBreakdowns:
    def test_cg_on_indefinite_matrix_stops_cleanly(self):
        from repro.resilience import FailureReason

        a = sp.diags([1.0, -1.0, 2.0]).tocsr()
        res = cg_solve(a, np.ones(3), max_iter=50)
        assert not res.converged
        assert res.reason is FailureReason.BREAKDOWN_INDEFINITE
        assert np.isfinite(res.relative_residual) or res.iterations <= 50

    def test_cg_with_nan_rhs_fails_fast(self):
        """Poisoned input is rejected at entry, not iterated on."""
        a = sp.eye(3).tocsr()
        with pytest.raises(ValueError, match="non-finite"):
            cg_solve(a, np.array([np.nan, 1.0, 1.0]), max_iter=10)

    def test_singular_pivot_is_nudged_not_crashed(self):
        """A structurally singular (isolated, zero-diagonal) block must
        not raise; the engine records the breakdown, warns, and
        regularizes."""
        from repro.resilience import PivotNudgeWarning

        a = sp.csr_matrix(
            np.array(
                [
                    [0.0, 0.0, 0.0],
                    [0.0, 4.0, 1.0],
                    [0.0, 1.0, 4.0],
                ]
            )
        )
        with pytest.warns(PivotNudgeWarning):
            m = BlockICFactorization(a, [np.array([0]), np.array([1, 2])], fill_level=0)
        assert m.breakdown_count >= 1
        assert m.factorization_stats()["pivot_nudges"] >= 1
        z = m.apply(np.ones(3))
        assert np.isfinite(z).all()


class TestDegenerateStructures:
    def test_vbr_empty_matrix(self):
        v = VBRMatrix.from_pattern(np.array([1, 1]), np.array([0, 0, 0]), np.array([], dtype=int))
        assert v.nnzb == 0
        assert v.empty_like().to_csr().shape == (2, 2)
        assert v.empty_like().to_csr().nnz == 0
        assert v.find_blocks(np.array([0]), np.array([1]))[0] == -1

    def test_djds_diagonal_only_matrix(self):
        a = sp.eye(5).tocsr()
        col = multicolor(adjacency_from_pattern(a))
        d = build_djds(a, col)
        assert len(d.loops) == 0
        x = np.arange(5.0)
        assert np.allclose(d.matvec(x), x)

    def test_multicolor_edgeless_graph(self):
        adj = adjacency_from_pattern(sp.csr_matrix((4, 4)))
        col = multicolor(adj)
        assert col.ncolors == 1

    def test_partition_coincident_points(self):
        coords = np.zeros((8, 3))
        part = partition_nodes_rcb(coords, 2)
        counts = np.bincount(part)
        assert counts.tolist() == [4, 4]

    def test_single_node_domain(self):
        mesh = box_mesh(2, 2, 2)
        prob = build_contact_problem(mesh, penalty=0.0)
        # one domain per node: localized IC == diagonal-block scaling
        part = np.arange(mesh.n_nodes)
        lp = LocalizedPreconditioner(prob.a, part, lambda s, n: bic(s, fill_level=0))
        res = cg_solve(prob.a, prob.b, lp, max_iter=20000)
        assert res.converged

    def test_localized_one_domain_equals_global(self):
        mesh = box_mesh(2, 2, 2)
        prob = build_contact_problem(mesh, penalty=0.0)
        part = np.zeros(mesh.n_nodes, dtype=int)
        lp = LocalizedPreconditioner(prob.a, part, lambda s, n: bic(s, fill_level=0))
        m = bic(prob.a, fill_level=0)
        i1 = cg_solve(prob.a, prob.b, lp).iterations
        i2 = cg_solve(prob.a, prob.b, m).iterations
        assert abs(i1 - i2) <= 1

    def test_diag_scaling_paper_limit(self):
        """Localized preconditioning with one domain per DOF *is* diagonal
        scaling (paper section 2.2's limiting statement)."""
        mesh = box_mesh(2, 2, 2)
        prob = build_contact_problem(mesh, penalty=0.0)
        from repro.precond import scalar_ic0

        part_dofs = np.arange(mesh.n_nodes)  # per-node (3-DOF blocks)
        i_diag = cg_solve(prob.a, prob.b, DiagonalScaling(prob.a), max_iter=20000).iterations
        # per-DOF localization on the scalar level:
        lp = LocalizedPreconditioner(prob.a, part_dofs, lambda s, n: scalar_ic0(s))
        # per-node localization is nearly (not exactly) diagonal scaling;
        # both must land in the same small band:
        i_loc = cg_solve(prob.a, prob.b, lp, max_iter=20000).iterations
        assert abs(i_loc - i_diag) <= max(5, 0.4 * i_diag)


class TestValidationErrors:
    def test_localized_rejects_bad_domain_count(self):
        mesh = box_mesh(2, 2, 2)
        prob = build_contact_problem(mesh, penalty=0.0)
        bad = np.zeros(mesh.n_nodes - 1, dtype=int)
        with pytest.raises(ValueError, match="domain ids for"):
            LocalizedPreconditioner(prob.a, bad, lambda s, n: bic(s, fill_level=0))

    def test_localized_accepts_a_list_partition(self):
        """Any integer sequence partitions, as in ``from_global``."""
        mesh = box_mesh(3, 3, 3)
        prob = build_contact_problem(mesh, penalty=0.0)
        part = partition_nodes_rcb(mesh.coords, 2)
        r = np.random.default_rng(3).normal(size=prob.a.shape[0])
        z = [
            LocalizedPreconditioner(prob.a, nd, lambda s, n: bic(s, fill_level=0)).apply(r)
            for nd in (part, part.tolist())
        ]
        assert np.array_equal(z[0], z[1])
