import numpy as np
import pytest
import scipy.sparse as sp

from repro.parallel import contact_aware_partition, partition_nodes_rcb
from repro.precond import (
    CoarseCorrection,
    LocalizedPreconditioner,
    Preconditioner,
    bic,
    rigid_body_operator,
    sb_bic0,
)
from repro.precond.localized import restrict_groups
from repro.solvers.cg import cg_solve


class BNN(CoarseCorrection):
    """Oracle: the balancing Neumann–Neumann form the A-DEF2 apply replaced,
    ``Q + (I - Q A) M^{-1} (I - A Q)``, SPD and started from zero."""

    start = Preconditioner.start

    def apply(self, r):
        qr = self._q(r)
        z = self._m.apply(r - self._a @ qr)
        return qr + z - self._q(self._a @ z)


def _localized(p, part, family):
    if family == "bic0":
        return LocalizedPreconditioner(p.a, part, lambda s, n: bic(s, fill_level=0))
    return LocalizedPreconditioner(
        p.a, part, lambda s, n: sb_bic0(s, restrict_groups(p.groups, n, p.mesh.n_nodes))
    )


def _rcb4(p):
    """RCB aggregates (they cut contact groups) with BIC(0): the coarse
    space's hardest case here."""
    part = partition_nodes_rcb(p.mesh.coords, 4)
    lp = _localized(p, part, "bic0")
    r = rigid_body_operator(p.mesh.coords, part, p.fixed_dofs)
    return lp, part, CoarseCorrection(p.a, lp, r)


class TestRigidBodyOperator:
    def test_shape_and_fixed_columns(self, block_problem_small):
        p = block_problem_small
        part = partition_nodes_rcb(p.mesh.coords, 4)
        r = rigid_body_operator(p.mesh.coords, part, p.fixed_dofs)
        assert r.shape == (6 * 4, 3 * p.mesh.n_nodes)
        assert p.fixed_dofs.size and not r.tocsc()[:, p.fixed_dofs].count_nonzero()

    def test_rigid_motion_of_one_aggregate_in_range(self, block_problem_small):
        p = block_problem_small
        part = partition_nodes_rcb(p.mesh.coords, 4)
        r = rigid_body_operator(p.mesh.coords, part, p.fixed_dofs).toarray()
        rng = np.random.default_rng(1)
        t, w, c = rng.normal(size=(3, 3))
        u = t + np.cross(w, p.mesh.coords - c)  # translate by t, rotate by w about c
        u[part != 2] = 0.0
        u = u.reshape(-1)
        u[p.fixed_dofs] = 0.0
        coef = np.linalg.lstsq(r.T, u, rcond=None)[0]
        assert np.linalg.norm(r.T @ coef - u) <= 1e-10 * np.linalg.norm(u)
        assert np.allclose(coef[np.arange(24) // 6 != 2], 0.0, atol=1e-12)

    def test_an_aggregate_with_no_nodes_is_rejected(self, block_problem_small):
        """Ids {0, 2}: aggregate 1 would have no centroid (NaN) and a
        singular coarse matrix; it is named instead."""
        p = block_problem_small
        part = 2 * partition_nodes_rcb(p.mesh.coords, 2)
        with pytest.raises(ValueError, match="aggregate 1 is empty"):
            rigid_body_operator(p.mesh.coords, part, p.fixed_dofs)


class TestTwoLevel:
    def test_galerkin_property(self, block_problem_small):
        """``R A z = R r``: the coarse residual of every apply is exact."""
        p = block_problem_small
        _, part, tl = _rcb4(p)
        r = rigid_body_operator(p.mesh.coords, part, p.fixed_dofs)
        v = np.random.default_rng(0).normal(size=p.ndof)
        assert np.allclose(r @ (p.a @ tl.apply(v)), r @ v, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("warm", [False, True])
    def test_start_has_no_coarse_residual(self, block_problem_small, warm):
        p = block_problem_small
        _, part, tl = _rcb4(p)
        r = rigid_body_operator(p.mesh.coords, part, p.fixed_dofs)
        xbar = np.random.default_rng(2).normal(size=p.ndof) if warm else None
        coarse = r @ (p.b - p.a @ tl.start(p.b, xbar))
        assert np.linalg.norm(coarse) <= 1e-10 * np.linalg.norm(r @ p.b)

    @pytest.mark.parametrize("warm", [False, True])
    def test_cg_solve_starts_from_start(self, block_problem_small, monkeypatch, warm):
        p = block_problem_small
        _, _, tl = _rcb4(p)
        xbar = np.random.default_rng(3).normal(size=p.ndof) if warm else None
        want = cg_solve(p.a, p.b, tl, x0=xbar)
        x0 = tl.start(p.b, xbar)
        monkeypatch.setattr(tl, "start", lambda b, x0: x0)  # the caller started it
        got = cg_solve(p.a, p.b, tl, x0=x0)
        assert want.iterations == got.iterations
        assert np.array_equal(want.x, got.x) and np.array_equal(want.history, got.history)

    @pytest.mark.parametrize(
        "partition, nd, family",
        [("contact", 2, "sbbic0"), ("contact", 8, "sbbic0"), ("rcb", 4, "bic0")],
    )
    def test_iterations_equal_bnn_oracle(self, block_problem_small, partition, nd, family):
        """On translations, A-DEF2 needs as many iterations as the balancing
        Neumann–Neumann form it replaced (27 / 27 / 241 at λ=1e4; at λ ≥ 1e6
        on RCB, rounding moves either count by a few per cent)."""
        p = block_problem_small
        if partition == "rcb":
            part = partition_nodes_rcb(p.mesh.coords, nd)
        else:
            part = contact_aware_partition(p.mesh.coords, p.groups, nd)
        lp = _localized(p, part, family)
        # piecewise-constant translations, one row per (aggregate, component)
        rows = (part[:, None] * 3 + np.arange(3)).reshape(-1)
        shape = (3 * nd, p.ndof)
        translations = sp.csr_matrix((np.ones(p.ndof), (rows, np.arange(p.ndof))), shape=shape)
        adef2 = cg_solve(p.a, p.b, CoarseCorrection(p.a, lp, translations))
        bnn = cg_solve(p.a, p.b, BNN(p.a, lp, translations))
        assert adef2.converged and adef2.iterations == bnn.iterations

    def test_never_worse_than_localized(self, block_problem_stiff):
        p = block_problem_stiff
        part = contact_aware_partition(p.mesh.coords, p.groups, 8)
        lp = _localized(p, part, "sbbic0")
        tl = CoarseCorrection(p.a, lp, rigid_body_operator(p.mesh.coords, part, p.fixed_dofs))
        r1 = cg_solve(p.a, p.b, lp, max_iter=30000)
        r2 = cg_solve(p.a, p.b, tl, max_iter=30000)
        assert r2.converged
        assert r2.iterations <= r1.iterations

    def test_improvement_grows_with_domains(self, block_problem_stiff):
        """On the ill-conditioned problem with contact-aware partitions,
        the coarse space pays off more as the domain count grows."""
        p = block_problem_stiff
        gains = []
        for nd in (2, 8):
            part = contact_aware_partition(p.mesh.coords, p.groups, nd)
            lp = _localized(p, part, "sbbic0")
            tl = CoarseCorrection(p.a, lp, rigid_body_operator(p.mesh.coords, part, p.fixed_dofs))
            i1 = cg_solve(p.a, p.b, lp, max_iter=30000).iterations
            i2 = cg_solve(p.a, p.b, tl, max_iter=30000).iterations
            gains.append(i1 - i2)
        assert gains[1] >= gains[0]

    def test_solution_correct(self, block_problem_small, block_reference):
        """Right on RCB aggregates too, where cut contact groups make the
        rigid-body modes cost iterations."""
        p = block_problem_small
        _, _, tl = _rcb4(p)
        res = cg_solve(p.a, p.b, tl)
        err = np.linalg.norm(res.x - block_reference) / np.linalg.norm(block_reference)
        assert err < 1e-6

    def test_memory_accounts_for_parts(self, block_problem_small):
        lp, _, tl = _rcb4(block_problem_small)
        assert tl.memory_bytes() >= lp.memory_bytes()
