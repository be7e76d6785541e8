import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.vbr import VBRMatrix, shape_buckets, supernode_maps


def random_partition(ndof, rng, max_size=4):
    """Random ordered partition of 0..ndof-1 into super-nodes."""
    perm = rng.permutation(ndof)
    out = []
    i = 0
    while i < ndof:
        s = int(rng.integers(1, max_size + 1))
        out.append(np.sort(perm[i : i + s]))
        i += s
    return out


def vbr_from_csr(a, supernodes):
    """VBR of scalar CSR *a* over the ordered DOF partition *supernodes*,
    in the numbering where super-node 0's DOFs come first: the pattern
    the entries touch, and every entry summed into its block."""
    coo = sp.coo_matrix(a)
    snode_of, local = supernode_maps(supernodes, a.shape[0])
    sizes = np.array([len(s) for s in supernodes], dtype=np.int64)
    n = sizes.size
    bi, bj = snode_of[coo.row], snode_of[coo.col]
    keys = np.unique(bi * n + bj)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    v = VBRMatrix.from_pattern(sizes, indptr, keys % n).empty_like()
    flat = v.boff[v.find_blocks(bi, bj)] + local[coo.row] * sizes[bj] + local[coo.col]
    np.add.at(v.data, flat, coo.data)
    return v


def random_csr(ndof, rng, density=0.3):
    m = sp.random(ndof, ndof, density=density, random_state=np.random.RandomState(int(rng.integers(2**31))))
    a = (m + m.T).tocsr()
    a.setdiag(np.arange(1, ndof + 1, dtype=float))
    a.sum_duplicates()
    a.sort_indices()
    return a


class TestSupernodeMaps:
    def test_valid(self):
        sn, loc = supernode_maps([np.array([0, 2]), np.array([1])], 3)
        assert sn.tolist() == [0, 1, 0]
        assert loc.tolist() == [0, 0, 1]

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            supernode_maps([np.array([0, 1]), np.array([1, 2])], 3)

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            supernode_maps([np.array([0])], 2)


class TestShapeBuckets:
    def test_groups_by_shape(self):
        sr = np.array([1, 2, 1, 2])
        sc = np.array([1, 1, 1, 1])
        buckets = list(shape_buckets(sr, sc, np.arange(4)))
        shapes = {(a, b): pos.tolist() for a, b, pos in buckets}
        assert shapes[(1, 1)] == [0, 2]
        assert shapes[(2, 1)] == [1, 3]

    def test_empty(self):
        assert list(shape_buckets(np.array([1]), np.array([1]), np.array([], dtype=int))) == []


class TestVBRRoundtrip:
    def test_to_csr_matches_permuted_input(self):
        rng = np.random.default_rng(0)
        a = random_csr(12, rng)
        parts = random_partition(12, rng)
        v = vbr_from_csr(a, parts)
        perm = np.concatenate(parts)
        ref = a[perm][:, perm].toarray()
        got = v.to_csr().toarray()
        # VBR stores dense blocks: the pattern may include explicit zeros
        assert np.allclose(got, ref)


class TestBlockAccess:
    def test_find_blocks(self):
        rng = np.random.default_rng(4)
        a = random_csr(8, rng)
        parts = random_partition(8, rng, max_size=3)
        v = vbr_from_csr(a, parts)
        rows = v.block_rows()
        pos = v.find_blocks(rows, v.indices)
        assert np.array_equal(pos, np.arange(v.nnzb))

    def test_find_absent_returns_minus_one(self):
        a = sp.eye(4).tocsr()
        v = vbr_from_csr(a, [np.array([i]) for i in range(4)])
        pos = v.find_blocks(np.array([0]), np.array([3]))
        assert pos[0] == -1

    def test_gather_scatter_roundtrip(self):
        rng = np.random.default_rng(5)
        a = random_csr(10, rng)
        parts = [np.arange(0, 5), np.arange(5, 10)]
        v = vbr_from_csr(a, parts)
        before = v.gather(np.array([0]), 5, 5)
        v.block(0)[:] += 1.0  # the block view writes through to data
        after = v.gather(np.array([0]), 5, 5)
        assert np.allclose(after - before, 1.0)

    def test_block_view(self):
        a = sp.csr_matrix(np.arange(16, dtype=float).reshape(4, 4))
        v = vbr_from_csr(a, [np.array([0, 1]), np.array([2, 3])])
        blk = v.block(0)
        assert blk.shape == (2, 2)
        assert np.allclose(blk, [[0, 1], [4, 5]])


@settings(max_examples=20, deadline=None)
@given(ndof=st.integers(4, 16), seed=st.integers(0, 10_000))
def test_property_vbr_csr_roundtrip(ndof, seed):
    rng = np.random.default_rng(seed)
    a = random_csr(ndof, rng, density=0.4)
    parts = random_partition(ndof, rng)
    v = vbr_from_csr(a, parts)
    perm = np.concatenate(parts)
    assert np.allclose(v.to_csr().toarray(), a[perm][:, perm].toarray())


@settings(max_examples=20, deadline=None)
@given(ndof=st.integers(4, 16), seed=st.integers(0, 10_000))
def test_property_memory_counts_data(ndof, seed):
    rng = np.random.default_rng(seed)
    a = random_csr(ndof, rng, density=0.4)
    parts = random_partition(ndof, rng)
    v = vbr_from_csr(a, parts)
    assert v.memory_bytes() >= v.data.nbytes
