"""Cross-module integration: full pipelines against direct references."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro import (
    bic,
    build_contact_problem,
    cg_solve,
    sb_bic0,
    simple_block_model,
    southwest_japan_model,
)
from repro.parallel import DistributedSystem, contact_aware_partition, parallel_cg
from repro.precond.localized import restrict_groups


class TestEndToEnd:
    def test_block_model_full_pipeline(self):
        """Mesh -> assembly -> penalty -> BC -> SB-BIC(0) CG == direct."""
        mesh = simple_block_model(4, 4, 2, 4, 4)
        prob = build_contact_problem(mesh, penalty=1e6)
        res = cg_solve(prob.a, prob.b, sb_bic0(prob.a, prob.groups))
        ref = spla.spsolve(prob.a.tocsc(), prob.b)
        assert res.converged
        assert np.linalg.norm(res.x - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_contact_constraint_satisfied_in_solution(self):
        """Large penalty forces coincident nodes to move together."""
        mesh = simple_block_model(3, 3, 2, 3, 3)
        prob = build_contact_problem(mesh, penalty=1e8)
        res = cg_solve(prob.a, prob.b, sb_bic0(prob.a, prob.groups))
        u = res.x.reshape(-1, 3)
        for g in mesh.contact_groups:
            spread = np.abs(u[g] - u[g[0]]).max()
            assert spread < 1e-5 * max(np.abs(u).max(), 1.0)

    def test_swjapan_distributed_pipeline(self):
        mesh = southwest_japan_model(6, 4, 2, 2)
        prob = build_contact_problem(mesh, penalty=1e6, load="body", symmetry=False)
        part = contact_aware_partition(mesh.coords, mesh.contact_groups, 3)
        system = DistributedSystem.from_global(
            prob.a,
            prob.b,
            part,
            lambda sub, nodes: sb_bic0(
                sub, restrict_groups(mesh.contact_groups, nodes, mesh.n_nodes)
            ),
        )
        res = parallel_cg(system, max_iter=20000)
        ref = spla.spsolve(prob.a.tocsc(), prob.b)
        assert res.converged
        assert np.linalg.norm(res.x - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_displacement_physically_sensible(self):
        """Downward surface load -> downward mean displacement, fixed base."""
        mesh = simple_block_model(3, 3, 2, 3, 3)
        prob = build_contact_problem(mesh, penalty=1e6)
        res = cg_solve(prob.a, prob.b, sb_bic0(prob.a, prob.groups))
        u = res.x.reshape(-1, 3)
        assert np.allclose(u[mesh.node_sets["zmin"]], 0.0, atol=1e-10)
        assert u[mesh.node_sets["zmax"], 2].mean() < 0.0

    def test_solution_invariant_across_preconditioners(self):
        mesh = simple_block_model(3, 3, 2, 3, 3)
        prob = build_contact_problem(mesh, penalty=1e4)
        sols = []
        for m in (bic(prob.a, fill_level=0), bic(prob.a, fill_level=2), sb_bic0(prob.a, prob.groups)):
            sols.append(cg_solve(prob.a, prob.b, m).x)
        for s in sols[1:]:
            assert np.allclose(s, sols[0], atol=1e-5 * np.abs(sols[0]).max())

    def test_stiffer_penalty_monotone_gap_reduction(self):
        """The residual inter-face gap shrinks as the penalty grows."""
        mesh = simple_block_model(3, 3, 2, 3, 3)
        gaps = []
        for lam in (1e2, 1e4, 1e6):
            prob = build_contact_problem(mesh, penalty=lam)
            res = cg_solve(prob.a, prob.b, sb_bic0(prob.a, prob.groups))
            u = res.x.reshape(-1, 3)
            gaps.append(
                max(np.abs(u[g] - u[g[0]]).max() for g in mesh.contact_groups)
            )
        assert gaps[2] < gaps[1] < gaps[0]

    def test_public_api_surface(self):
        """Every name in the ``__all__`` of ``repro`` and of each of its
        subpackages resolves: a deleted name left behind in an export
        list fails here."""
        import importlib
        import pkgutil

        import repro

        packages = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg
        ]
        assert len(packages) > 10
        for package in packages:
            for name in package.__all__:
                assert getattr(package, name, None) is not None, (
                    f"{package.__name__}.__all__ names {name!r}, which it lacks"
                )
