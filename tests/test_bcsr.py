import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.bcsr import BCSRMatrix


def random_bcsr(n, nblocks, rng, b=3):
    rows = rng.integers(0, n, nblocks)
    cols = rng.integers(0, n, nblocks)
    blocks = rng.normal(size=(nblocks, b, b))
    return BCSRMatrix.from_coo_blocks(n, rows, cols, blocks, b=b), (rows, cols, blocks)


class TestConstruction:
    def test_diagonal_always_present(self):
        m, _ = random_bcsr(5, 3, np.random.default_rng(0))
        rows = m.block_rows()
        for i in range(5):
            assert ((rows == i) & (m.indices == i)).any()

    def test_duplicates_summed(self):
        blocks = np.ones((2, 3, 3))
        m = BCSRMatrix.from_coo_blocks(2, [0, 0], [1, 1], blocks)
        dense = m.toarray()
        assert np.allclose(dense[0:3, 3:6], 2.0)

    def test_sorted_indices_within_rows(self):
        m, _ = random_bcsr(8, 30, np.random.default_rng(1))
        for i in range(m.n):
            row = m.indices[m.indptr[i] : m.indptr[i + 1]]
            assert np.all(np.diff(row) > 0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            BCSRMatrix.from_coo_blocks(2, [0], [0], np.ones((1, 2, 2)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BCSRMatrix.from_coo_blocks(2, [5], [0], np.ones((1, 3, 3)))

    def test_from_scipy_roundtrip(self):
        rng = np.random.default_rng(2)
        dense = rng.normal(size=(9, 9))
        m = BCSRMatrix.from_scipy(sp.csr_matrix(dense))
        assert np.allclose(m.toarray(), dense)

    def test_from_scipy_rejects_bad_blocksize(self):
        with pytest.raises(ValueError, match="block size"):
            BCSRMatrix.from_scipy(sp.eye(10).tocsr())


class TestOperations:
    def test_matvec_matches_scipy(self):
        rng = np.random.default_rng(3)
        m, _ = random_bcsr(7, 25, rng)
        x = rng.normal(size=m.ndof)
        assert np.allclose(m.matvec(x), m.to_csr() @ x)

    def test_matvec_shape_check(self):
        m, _ = random_bcsr(4, 5, np.random.default_rng(4))
        with pytest.raises(ValueError, match="shape"):
            m.matvec(np.zeros(5))

    def test_node_adjacency_symmetric_no_selfloops(self):
        m, _ = random_bcsr(6, 18, np.random.default_rng(7))
        g = m.node_adjacency()
        assert (g != g.T).nnz == 0
        assert g.diagonal().sum() == 0

    def test_is_symmetric_detects(self):
        blocks = np.zeros((1, 3, 3))
        blocks[0, 0, 1] = 1.0
        m = BCSRMatrix.from_coo_blocks(2, [0], [1], blocks)
        assert not m.is_symmetric()

    def test_memory_positive(self):
        m, _ = random_bcsr(4, 4, np.random.default_rng(8))
        assert m.memory_bytes() > 0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 10_000),
)
def test_property_from_coo_equals_scipy(n, seed):
    """BCSR assembly agrees with scipy COO assembly on random triplets."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4 * n))
    rows = rng.integers(0, n, k)
    cols = rng.integers(0, n, k)
    blocks = rng.normal(size=(k, 3, 3))
    m = BCSRMatrix.from_coo_blocks(n, rows, cols, blocks)

    ref = np.zeros((3 * n, 3 * n))
    for r, c, blk in zip(rows, cols, blocks):
        ref[3 * r : 3 * r + 3, 3 * c : 3 * c + 3] += blk
    assert np.allclose(m.toarray(), ref)
