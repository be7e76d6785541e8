"""Cross-module invariants tying the layers together (hypothesis-based)."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.generators import simple_block_model
from repro.fem.model import build_contact_problem
from repro.parallel import partition_nodes_rcb
from repro.precond import LocalizedPreconditioner, bic, sb_bic0
from repro.precond.icfact import BlockICFactorization


def spd_block(n_nodes, seed):
    rng = np.random.RandomState(seed)
    m = sp.random(3 * n_nodes, 3 * n_nodes, density=0.2, random_state=rng)
    a = (m + m.T).tocsr()
    a.setdiag(np.asarray(abs(a).sum(axis=1)).reshape(-1) + 1.0)
    a = sp.csr_matrix(a)
    a.sort_indices()
    return a


@settings(max_examples=10, deadline=None)
@given(n_nodes=st.integers(3, 8), seed=st.integers(0, 1000))
def test_localized_apply_is_blockdiag_of_locals(n_nodes, seed):
    """LocalizedPreconditioner(r) == concatenation of the local applies —
    the algebraic identity that makes the sequential runs equal the
    distributed ones."""
    a = spd_block(n_nodes, seed)
    rng = np.random.default_rng(seed)
    part = rng.integers(0, 2, size=n_nodes)
    part[0] = 0
    part[-1] = 1  # both domains non-empty
    lp = LocalizedPreconditioner(a, part, lambda s, n: bic(s, fill_level=0))
    r = rng.normal(size=3 * n_nodes)
    z = lp.apply(r)
    for d in range(2):
        nodes = np.flatnonzero(part == d)
        dofs = (nodes[:, None] * 3 + np.arange(3)).reshape(-1)
        sub = a[dofs][:, dofs].tocsr()
        m_local = bic(sub, fill_level=0)
        assert np.allclose(z[dofs], m_local.apply(r[dofs]), atol=1e-10)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000), ncolors=st.integers(0, 8), shift=st.floats(0.0, 1.0))
def test_apply_m_and_apply_are_mutual_inverses(seed, ncolors, shift):
    a = spd_block(6, seed)
    m = BlockICFactorization(
        a, [np.arange(3 * i, 3 * i + 3) for i in range(6)],
        fill_level=0, ncolors=ncolors, shift=shift,
    )
    v = np.random.default_rng(seed).normal(size=18)
    assert np.allclose(m.apply(m.apply_m(v)), v, atol=1e-7 * max(1.0, np.abs(v).max()))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 100))
def test_matrix_permutation_invariance_of_convergence(seed):
    """Relabelling the FEM nodes must not change SB-BIC(0) CG behaviour
    beyond round-off: same iteration count (+-2), same solution."""
    from repro.solvers.cg import cg_solve

    mesh = simple_block_model(2, 2, 2, 2, 2)
    prob = build_contact_problem(mesh, penalty=1e5)
    rng = np.random.default_rng(seed)
    perm_nodes = rng.permutation(mesh.n_nodes)
    dof_perm = (perm_nodes[:, None] * 3 + np.arange(3)).reshape(-1)
    a2 = prob.a[dof_perm][:, dof_perm].tocsr()
    b2 = prob.b[dof_perm]
    inv = np.empty(mesh.n_nodes, dtype=int)
    inv[perm_nodes] = np.arange(mesh.n_nodes)
    groups2 = [np.sort(inv[g]) for g in prob.groups]

    r1 = cg_solve(prob.a, prob.b, sb_bic0(prob.a, prob.groups))
    r2 = cg_solve(a2, b2, sb_bic0(a2, groups2))
    assert r1.converged and r2.converged
    assert abs(r1.iterations - r2.iterations) <= max(3, 0.1 * r1.iterations)
    assert np.allclose(r2.x, r1.x[dof_perm], atol=1e-5 * np.abs(r1.x).max())


@settings(max_examples=10, deadline=None)
@given(ndom=st.integers(2, 5), seed=st.integers(0, 1000))
def test_rcb_deterministic(ndom, seed):
    coords = np.random.default_rng(seed).normal(size=(40, 3))
    p1 = partition_nodes_rcb(coords, ndom)
    p2 = partition_nodes_rcb(coords, ndom)
    assert np.array_equal(p1, p2)
