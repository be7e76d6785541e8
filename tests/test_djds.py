import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reorder import adjacency_from_pattern, multicolor
from repro.sparse.djds import _size_runs, build_djds


def laplacian_csr(n, seed=0):
    rng = np.random.default_rng(seed)
    m = sp.random(n, n, density=0.3, random_state=np.random.RandomState(seed))
    a = (m + m.T).tocsr()
    a.setdiag(np.asarray(abs(a).sum(axis=1)).reshape(-1) + 1.0)
    a.sum_duplicates()
    a.sort_indices()
    return a


def coloring_of(a, ncolors=0):
    return multicolor(adjacency_from_pattern(a), ncolors)


class TestSizeRuns:
    def test_uniform_one_run(self):
        assert _size_runs(np.array([3, 3, 3])) == [(0, 3)]

    def test_alternating_fragments(self):
        assert _size_runs(np.array([1, 2, 1])) == [(0, 1), (1, 2), (2, 3)]

    def test_empty(self):
        assert _size_runs(np.array([], dtype=int)) == []


class TestDJDSMatvec:
    @pytest.mark.parametrize("npe", [1, 2, 8])
    def test_matvec_equals_csr(self, npe):
        a = laplacian_csr(30, seed=1)
        col = coloring_of(a)
        d = build_djds(a, col, npe=npe)
        x = np.random.default_rng(2).normal(size=30)
        assert np.allclose(d.matvec(x), a @ x)

    def test_matvec_with_size_sorting(self):
        a = laplacian_csr(24, seed=3)
        col = coloring_of(a)
        sizes = np.random.default_rng(4).integers(1, 4, size=24)
        d = build_djds(a, col, npe=4, sizes=sizes, sort_by_size=True)
        x = np.random.default_rng(5).normal(size=24)
        assert np.allclose(d.matvec(x), a @ x)

    def test_dummies_do_not_change_matvec(self):
        a = laplacian_csr(20, seed=6)
        col = coloring_of(a)
        d_pad = build_djds(a, col, npe=2, pad_dummies=True)
        d_nopad = build_djds(a, col, npe=2, pad_dummies=False)
        x = np.random.default_rng(7).normal(size=20)
        assert np.allclose(d_pad.matvec(x), d_nopad.matvec(x))

    def test_matvec_shape_check(self):
        a = laplacian_csr(8)
        d = build_djds(a, coloring_of(a))
        with pytest.raises(ValueError, match="shape"):
            d.matvec(np.zeros(9))


class TestDJDSStats:
    def test_loop_lengths_sum_to_entries(self):
        a = laplacian_csr(25, seed=8)
        col = coloring_of(a)
        d = build_djds(a, col, npe=2, pad_dummies=False)
        offdiag = a.nnz - np.count_nonzero(a.diagonal())
        assert d.stats.loop_lengths.sum() == offdiag

    def test_dummy_count_nonnegative_and_counted(self):
        a = laplacian_csr(25, seed=9)
        col = coloring_of(a)
        sizes = np.random.default_rng(10).integers(1, 4, size=25)
        d = build_djds(a, col, npe=2, sizes=sizes, sort_by_size=True, pad_dummies=True)
        offdiag = a.nnz - np.count_nonzero(a.diagonal())
        assert d.stats.n_dummy >= 0
        assert d.stats.loop_lengths.sum() == offdiag + d.stats.n_dummy

    def test_rows_per_pe_cover_all(self):
        a = laplacian_csr(23, seed=11)
        d = build_djds(a, coloring_of(a), npe=4)
        assert d.stats.rows_per_pe.sum() == 23

    def test_unsorted_fragments_more(self):
        # ring graph: every row has exactly 2 off-diagonals, so the only
        # fragmentation source is the block-size interleaving.
        n = 40
        ring = sp.diags([np.ones(n - 1), np.ones(n - 1)], [1, -1], shape=(n, n)).tolil()
        ring[0, n - 1] = 1
        ring[n - 1, 0] = 1
        a = sp.csr_matrix(ring) + sp.eye(n)
        a = sp.csr_matrix(a)
        col = coloring_of(a)
        sizes = np.tile([1, 3], n // 2)
        sorted_d = build_djds(a, col, npe=2, sizes=sizes, sort_by_size=True)
        unsorted_d = build_djds(a, col, npe=2, sizes=sizes, sort_by_size=False)
        assert unsorted_d.stats.average_vector_length <= sorted_d.stats.average_vector_length

    def test_sort_by_size_requires_sizes(self):
        a = laplacian_csr(6)
        with pytest.raises(ValueError, match="sizes"):
            build_djds(a, coloring_of(a), sort_by_size=True)

    def test_npe_validation(self):
        a = laplacian_csr(6)
        with pytest.raises(ValueError, match="npe"):
            build_djds(a, coloring_of(a), npe=0)

    def test_imbalance_zero_when_divisible(self):
        a = laplacian_csr(16, seed=13)
        d = build_djds(a, coloring_of(a, ncolors=0), npe=1)
        assert d.stats.load_imbalance_percent == 0.0


@settings(max_examples=20, deadline=None)
@given(n=st.integers(5, 30), seed=st.integers(0, 1000), npe=st.integers(1, 8))
def test_property_djds_matvec(n, seed, npe):
    a = laplacian_csr(n, seed=seed)
    col = coloring_of(a)
    d = build_djds(a, col, npe=npe)
    x = np.random.default_rng(seed).normal(size=n)
    assert np.allclose(d.matvec(x), a @ x)
