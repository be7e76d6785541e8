import numpy as np
import pytest

from repro.fem.generators import simple_block_model
from repro.fem.model import build_contact_problem
from repro.fem.mpc import (
    master_map,
    reduce_system,
    solve_tied_exact,
    tied_contact_transformation,
)
from repro.precond import sb_bic0
from repro.solvers.cg import cg_solve
from repro.solvers.history import analyze_history


class TestMasterMap:
    def test_identity_without_groups(self):
        assert np.array_equal(master_map([], 4), np.arange(4))

    def test_groups_collapse_to_first(self):
        m = master_map([np.array([1, 3])], 4)
        assert m.tolist() == [0, 1, 2, 1]


class TestTransformation:
    def test_shape_and_partition(self):
        t = tied_contact_transformation([np.array([0, 2])], 3, b=3)
        assert t.shape == (9, 6)
        # every full DOF maps to exactly one master DOF
        assert np.allclose(np.asarray(t.sum(axis=1)).reshape(-1), 1.0)

    def test_slave_copies_master(self):
        t = tied_contact_transformation([np.array([0, 2])], 3, b=3).toarray()
        assert np.array_equal(t[0:3], t[6:9])  # node 2 copies node 0


class TestReduction:
    def test_reduced_system_spd(self, block_problem_small):
        p = block_problem_small
        a_red, b_red, t = reduce_system(p.a, p.b, p.groups, p.mesh.n_nodes)
        assert a_red.shape[0] == b_red.size == t.shape[1]
        d = a_red - a_red.T
        assert not d.nnz or abs(d.data).max() < 1e-8

    def test_penalty_solution_converges_to_exact(self):
        """As lambda grows, the penalty solution approaches the exactly
        eliminated (MPC) solution — validating both formulations."""
        mesh = simple_block_model(3, 3, 2, 3, 3)
        # exact solution from the penalty-free stiffness
        from repro.fem.assembly import assemble_stiffness
        from repro.fem.bc import all_dofs, apply_dirichlet, component_dofs, surface_load

        k = assemble_stiffness(mesh)
        f = surface_load(mesh, mesh.node_sets["zmax"], np.array([0.0, 0.0, -1.0]))
        fixed = np.unique(
            np.concatenate(
                [
                    all_dofs(mesh.node_sets["zmin"]),
                    component_dofs(mesh.node_sets["xmin"], 0),
                    component_dofs(mesh.node_sets["ymin"], 1),
                ]
            )
        )
        a_free, b = apply_dirichlet(k.to_csr(), f, fixed)
        exact = solve_tied_exact(a_free, b, mesh.contact_groups, mesh.n_nodes)

        errs = []
        for lam in (1e3, 1e6):
            prob = build_contact_problem(mesh, penalty=lam)
            res = cg_solve(prob.a, prob.b, sb_bic0(prob.a, prob.groups))
            errs.append(np.linalg.norm(res.x - exact) / np.linalg.norm(exact))
        assert errs[1] < errs[0]
        assert errs[1] < 1e-4

    def test_dimension_validation(self, block_problem_small):
        p = block_problem_small
        with pytest.raises(ValueError, match="dimension"):
            reduce_system(p.a, p.b, p.groups, p.mesh.n_nodes + 1)


class TestHistoryAnalysis:
    def test_geometric_history_is_smooth(self):
        h = 0.5 ** np.arange(20)
        prof = analyze_history(h)
        assert prof.oscillation_ratio == 0.0
        assert prof.plateau_length == 0
        assert np.isclose(prof.mean_reduction, 0.5)
        assert prof.is_smooth

    def test_oscillating_history_detected(self):
        h = np.array([1.0, 0.5, 0.8, 0.4, 0.7, 0.3, 0.6, 0.2])
        prof = analyze_history(h)
        assert prof.oscillation_ratio > 0.3

    def test_plateau_detected(self):
        h = np.concatenate([[1.0], np.full(60, 0.999), [1e-9]])
        prof = analyze_history(h)
        assert prof.plateau_length >= 59
        assert not prof.is_smooth

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            analyze_history(np.array([1.0]))

    def test_real_sb_history_smooth(self, block_problem_stiff):
        p = block_problem_stiff
        res = cg_solve(p.a, p.b, sb_bic0(p.a, p.groups))
        assert analyze_history(res.history).is_smooth

    def test_exact_zero_final_residual_is_true_convergence(self):
        # regression: an exact-zero last residual used to clamp
        # mean_reduction to ~1e-300**(1/it) instead of reporting 0.0
        h = np.array([1.0, 0.1, 0.0])
        prof = analyze_history(h)
        assert prof.mean_reduction == 0.0
        assert not prof.diverged

    def test_nan_history_is_diverged_not_smooth(self):
        # regression: NaN step ratios compared False against every
        # threshold, so a blown-up history scored "smooth"
        h = np.array([1.0, 0.5, np.nan, np.nan])
        prof = analyze_history(h)
        assert prof.diverged
        assert not prof.is_smooth
        assert prof.mean_reduction == np.inf

    def test_inf_history_is_diverged(self):
        h = np.array([1.0, 10.0, np.inf, np.inf])
        prof = analyze_history(h)
        assert prof.diverged
        assert not prof.is_smooth
        # every non-finite step counts as an uptick
        assert prof.oscillation_ratio == 1.0

    def test_finite_history_not_flagged_diverged(self):
        prof = analyze_history(0.5 ** np.arange(10))
        assert not prof.diverged
