"""The factorization engine: correctness of the colored batched IC."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selective_blocking import selective_block_supernodes
from repro.experiments.workloads import block_problem, swjapan_problem
from repro.precond.bic import node_supernodes
from repro.precond.icfact import BlockICFactorization, ICSymbolic
from repro.resilience import PivotNudgeWarning
from repro.solvers.cg import cg_solve


def spd_csr(ndof, seed, density=0.25):
    rng = np.random.default_rng(seed)
    m = sp.random(ndof, ndof, density=density, random_state=np.random.RandomState(seed))
    a = (m + m.T).tocsr()
    a.setdiag(np.asarray(abs(a).sum(axis=1)).reshape(-1) + 1.0)
    a.sum_duplicates()
    a.sort_indices()
    return a


def node_parts(ndof, b=3):
    return [np.arange(i, i + b) for i in range(0, ndof, b)]


def dof_parts(ndof):
    return [np.array([i]) for i in range(ndof)]


class TestExactLimits:
    def test_single_supernode_is_exact_solver(self):
        """One selective block covering everything = direct solve."""
        a = spd_csr(12, 0)
        m = BlockICFactorization(a, [np.arange(12)], fill_level=0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=12)
        assert np.allclose(m.apply(a @ x), x, atol=1e-8)

    def test_block_diagonal_matrix_solved_exactly(self):
        """If A is block diagonal w.r.t. the super-nodes, M = A."""
        blocks = [np.array([[4.0, 1.0], [1.0, 3.0]]), np.array([[5.0]])]
        a = sp.block_diag(blocks).tocsr()
        m = BlockICFactorization(a, [np.array([0, 1]), np.array([2])], fill_level=0)
        x = np.array([1.0, -2.0, 3.0])
        assert np.allclose(m.apply(a @ x), x)

    @pytest.mark.parametrize("fill_level", [1, 2])
    def test_full_variant_matches_reference_ic(self, fill_level):
        """The batched color-scheduled factorization must equal a naive
        sequential incomplete Cholesky on the same pattern/ordering."""
        n = 20
        a = spd_csr(n, 100 + fill_level, density=0.3)
        m = BlockICFactorization(a, dof_parts(n), fill_level=fill_level)
        got = m.factor_csr().toarray()
        ref = _reference_ic_lower(a, m)
        assert np.allclose(got, ref, atol=1e-10)

    def test_dmod_variant_matches_reference(self):
        """D-mod: off-diagonals untouched, diagonal recurrence exact."""
        n = 18
        a = spd_csr(n, 200, density=0.3)
        m = BlockICFactorization(a, dof_parts(n), fill_level=0)
        perm = m.perm_dof
        ap = a[perm][:, perm].toarray()
        lower = m.factor_csr().toarray()
        # off-diagonals must equal A's (permuted) lower triangle
        assert np.allclose(np.tril(lower, -1), np.tril(ap, -1) * (np.tril(lower, -1) != 0))
        # diagonal recurrence: d_i = a_ii - sum_k a_ik^2 / d_k over pattern
        d = np.zeros(n)
        pat = np.tril(ap, -1) != 0
        for i in range(n):
            d[i] = ap[i, i] - sum(ap[i, k] ** 2 / d[k] for k in range(i) if pat[i, k])
        assert np.allclose(np.diag(lower), d, atol=1e-10)

    def test_dense_pattern_level2_nearly_exact(self):
        """On a small dense-ish SPD matrix, IC(2) captures almost all fill."""
        a = spd_csr(9, 3, density=0.5)
        m = BlockICFactorization(a, dof_parts(9), fill_level=2)
        res = cg_solve(a, np.ones(9), m, eps=1e-12)
        assert res.iterations <= 6


def _reference_ic_lower(a: sp.csr_matrix, m: BlockICFactorization) -> np.ndarray:
    """Naive sequential IC on the engine's own pattern and ordering."""
    perm = m.perm_dof
    n = a.shape[0]
    ap = a[perm][:, perm].toarray()
    pattern = np.zeros((n, n), dtype=bool)
    pattern[m.L.block_rows(), m.L.indices] = True
    v = np.where(pattern, np.tril(ap), 0.0)
    for k in range(n):
        dk = v[k, k]
        nbrs = [i for i in range(k + 1, n) if pattern[i, k]]
        for ii, i in enumerate(nbrs):
            for j in nbrs[: ii + 1]:
                if pattern[i, j]:
                    v[i, j] -= v[i, k] * v[j, k] / dk
    return v


class TestVariants:
    @pytest.mark.parametrize("fill_level", [0, 1], ids=["dmod", "full"])
    def test_preconditioner_is_spd_action(self, fill_level):
        a = spd_csr(18, 4)
        m = BlockICFactorization(a, node_parts(18), fill_level=fill_level)
        rng = np.random.default_rng(5)
        # symmetry: <x, M^{-1} y> == <M^{-1} x, y>
        x, y = rng.normal(size=18), rng.normal(size=18)
        assert np.isclose(x @ m.apply(y), m.apply(x) @ y, rtol=1e-10)
        # positive definiteness on a few vectors
        for _ in range(4):
            v = rng.normal(size=18)
            assert v @ m.apply(v) > 0

    def test_auto_variant_selection(self):
        a = spd_csr(9, 7)
        m0 = BlockICFactorization(a, node_parts(9), fill_level=0)
        m1 = BlockICFactorization(a, node_parts(9), fill_level=1)
        assert m0.variant == "dmod"
        assert m1.variant == "full"

    def test_apply_m_inverts_apply(self):
        """``apply_m`` is the M whose inverse ``apply`` applies, also
        when the pivots inverted were shifted."""
        a = spd_csr(15, 8)
        for shift, fill_level in itertools.product((0.0, 0.5), (0, 1)):  # dmod and full
            m = BlockICFactorization(a, node_parts(15), fill_level=fill_level, shift=shift)
            rng = np.random.default_rng(9)
            v = rng.normal(size=15)
            assert np.allclose(m.apply_m(m.apply(v)), v, atol=1e-8)
            assert np.allclose(m.apply(m.apply_m(v)), v, atol=1e-8)

    def test_apply_m_inverts_apply_with_a_nudged_pivot(self):
        """A DOF that ``A`` couples to nothing leaves its node's pivot
        exactly singular: the nudged pivot is the one ``apply_m`` uses."""
        a = spd_csr(15, 8).tolil()
        a[4, :] = 0.0
        a[:, 4] = 0.0
        a = a.tocsr()
        a.eliminate_zeros()
        for fill_level in (0, 1):
            with pytest.warns(PivotNudgeWarning):
                m = BlockICFactorization(a, node_parts(15), fill_level=fill_level)
            assert m.breakdown_count == 1
            v = np.random.default_rng(9).normal(size=15)
            assert np.allclose(m.apply_m(m.apply(v)), v, atol=1e-8)
            assert np.allclose(m.apply(m.apply_m(v)), v, atol=1e-8)


class TestStructure:
    def test_schedule_covers_all_supernodes(self):
        a = spd_csr(21, 10)
        m = BlockICFactorization(a, node_parts(21), fill_level=0)
        seen = np.concatenate(m.schedule)
        assert np.sort(seen).tolist() == list(range(m.L.N))

    def test_schedule_respects_dependencies(self):
        """Every lower off-diagonal block joins a row in a later group."""
        a = spd_csr(24, 11)
        m = BlockICFactorization(a, node_parts(24), fill_level=1)
        group_of = np.empty(m.L.N, dtype=int)
        for g, mem in enumerate(m.schedule):
            group_of[mem] = g
        brow = m.L.block_rows()
        off = m.L.indices != brow
        assert np.all(group_of[m.L.indices[off]] < group_of[brow[off]])

    def test_size_sorting_within_color(self):
        a = spd_csr(24, 12)
        parts = [np.arange(0, 6), np.arange(6, 9), np.arange(9, 12)] + [
            np.array([i]) for i in range(12, 24)
        ]
        m = BlockICFactorization(a, parts, fill_level=0)
        colors = np.empty(m.L.N, dtype=int)
        for g, mem in enumerate(m.schedule):
            colors[mem] = g
        # within each schedule group in *ordering* position, sizes must
        # be non-increasing (groups are contiguous for fill_level=0)
        for g, mem in enumerate(m.schedule):
            assert np.all(np.diff(m.sizes[np.sort(mem)]) <= 0)

    def test_level_schedule_matches_naive_recurrence(self):
        """The vectorized topological wave sweep must produce exactly the
        waves of the per-row recurrence wave[i] = max(wave[nbrs]) + 1."""
        a = spd_csr(36, 42, density=0.2)
        m = BlockICFactorization(a, node_parts(36), fill_level=1)
        indptr, indices = m.L.indptr, m.L.indices
        wave = np.zeros(m.L.N, dtype=np.int64)
        for i in range(m.L.N):
            nbrs = indices[indptr[i] : indptr[i + 1] - 1]  # exclude diagonal
            if nbrs.size:
                wave[i] = wave[nbrs].max() + 1
        ref = [np.flatnonzero(wave == w) for w in range(int(wave.max()) + 1)]
        assert len(m.schedule) == len(ref)
        for got, want in zip(m.schedule, ref):
            assert np.array_equal(np.sort(got), want)

    def test_memory_grows_with_fill(self):
        a = spd_csr(30, 13)
        mems = [
            BlockICFactorization(a, node_parts(30), fill_level=k).memory_bytes()
            for k in (0, 1, 2)
        ]
        assert mems[0] <= mems[1] <= mems[2]

    def test_nnz_fill_zero_at_level0(self):
        a = spd_csr(15, 14)
        m = BlockICFactorization(a, node_parts(15), fill_level=0)
        assert m.nnz_fill == 0

    def test_group_sizes_reported(self):
        a = spd_csr(15, 15)
        m = BlockICFactorization(a, node_parts(15), fill_level=0)
        assert m.group_sizes().sum() == m.L.N


class TestConvergenceAcceleration:
    def test_fill_reduces_iterations(self):
        a = spd_csr(60, 16, density=0.15)
        b = np.ones(60)
        iters = []
        for k in (0, 1, 2):
            m = BlockICFactorization(a, node_parts(60), fill_level=k)
            iters.append(cg_solve(a, b, m, eps=1e-10).iterations)
        assert iters[2] <= iters[1] <= iters[0]

    def test_precond_beats_plain_cg(self):
        a = spd_csr(60, 17, density=0.15)
        b = np.ones(60)
        m = BlockICFactorization(a, node_parts(60), fill_level=0)
        plain = cg_solve(a, b, None, eps=1e-10)
        pre = cg_solve(a, b, m, eps=1e-10)
        assert pre.iterations <= plain.iterations

    def test_input_validation(self):
        a = spd_csr(9, 18)
        m = BlockICFactorization(a, node_parts(9), fill_level=0)
        with pytest.raises(ValueError, match="shape"):
            m.apply(np.zeros(8))


@settings(max_examples=15, deadline=None)
@given(nblocks=st.integers(2, 10), seed=st.integers(0, 10_000), k=st.integers(0, 1))
def test_property_preconditioned_cg_solves(nblocks, seed, k):
    ndof = 3 * nblocks
    a = spd_csr(ndof, seed)
    m = BlockICFactorization(a, node_parts(ndof), fill_level=k)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=ndof)
    res = cg_solve(a, a @ x, m, eps=1e-10)
    assert res.converged
    assert np.allclose(res.x, x, atol=1e-5 * max(1.0, np.abs(x).max()))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), ncolors=st.integers(0, 12))
def test_property_color_count_does_not_change_correctness(seed, ncolors):
    ndof = 24
    a = spd_csr(ndof, seed)
    m = BlockICFactorization(a, node_parts(ndof), fill_level=0, ncolors=ncolors)
    res = cg_solve(a, np.ones(ndof), m, eps=1e-10)
    assert res.converged


@pytest.mark.parametrize(
    "model, family, bound",
    [
        ("block", "sbbic0", 1.75),
        ("block", "bic0", 1.74),
        ("block", "bic1", 2.19),
        ("swjapan", "sbbic0", 2.38),
        ("swjapan", "bic0", 2.24),
        ("swjapan", "bic1", 2.03),
    ],
)
def test_symbolic_peaks_near_what_it_keeps(model, family, bound):
    """The pattern phase walks A's runs, its scatter map and the plan's
    rows a range at a time, so its transients stay a fraction of what it
    keeps: the peak above its start is at most *bound* (measured + 10 %)
    times :meth:`ICSymbolic.memory_bytes`.  At block 1.5 an SB-BIC(0)
    pattern peaked at 2.8 times its 15.6 MB when the runs were held in
    int64 with their rows expanded and the plan was built whole; it
    peaks at 1.2 times now."""
    p = {"block": block_problem, "swjapan": swjapan_problem}[model](1.0)
    n = p.a.shape[0] // 3
    supernodes = (
        selective_block_supernodes(p.groups, n, b=3) if family == "sbbic0" else node_supernodes(n)
    )
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        sym = ICSymbolic(p.a, supernodes, fill_level=int(family == "bic1"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= bound * sym.memory_bytes()
