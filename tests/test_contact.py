import numpy as np
import pytest

from repro.core.selective_blocking import (
    detect_contact_groups,
    selective_block_supernodes,
    selective_blocks_from_groups,
)
from repro.fem.contact import (
    add_penalty,
    assemble_penalty_groups,
    constraint_matrix,
    penalty_coo_blocks,
)
from repro.utils.validate import check_contact_groups


class TestPenaltyStencil:
    def test_fig24_pair_stencil(self):
        """Two-node group: diag +lambda, off-diag -lambda (Fig. 24)."""
        k = assemble_penalty_groups([np.array([0, 1])], 10.0, 2).toarray()
        assert np.allclose(k[0:3, 0:3], 10.0 * np.eye(3))
        assert np.allclose(k[0:3, 3:6], -10.0 * np.eye(3))

    def test_fig24_triple_stencil(self):
        """Three-node group: diag 2*lambda, each off-diag -lambda."""
        k = assemble_penalty_groups([np.arange(3)], 5.0, 3).toarray()
        assert np.allclose(k[0:3, 0:3], 10.0 * np.eye(3))
        assert np.allclose(k[0:3, 3:6], -5.0 * np.eye(3))
        assert np.allclose(k[3:6, 6:9], -5.0 * np.eye(3))

    def test_positive_semidefinite(self):
        k = assemble_penalty_groups([np.array([0, 2]), np.array([1, 3, 4])], 7.0, 5).toarray()
        vals = np.linalg.eigvalsh(k)
        assert vals.min() > -1e-12

    def test_kernel_is_rigid_group_motion(self):
        """Equal displacement of all group members costs no energy."""
        k = assemble_penalty_groups([np.arange(3)], 3.0, 4).toarray()
        u = np.zeros(12)
        u[0:9:3] = 1.0  # same x-displacement for nodes 0,1,2
        assert np.allclose(k @ u, 0.0)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            penalty_coo_blocks([np.array([0, 1])], -1.0, 2)

    def test_empty_groups(self):
        rows, cols, blocks = penalty_coo_blocks([], 1.0, 3)
        assert rows.size == 0 and blocks.shape == (0, 3, 3)

    def test_add_penalty_preserves_base(self, block_mesh_small):
        from repro.fem.assembly import assemble_stiffness

        k = assemble_stiffness(block_mesh_small)
        k2 = add_penalty(k, block_mesh_small.contact_groups, 0.0)
        assert np.allclose(k2.to_csr().toarray(), k.to_csr().toarray())

    def test_ctc_equals_laplacian_kernel(self):
        """C^T C has the same kernel as the Fig. 24 penalty matrix."""
        groups = [np.arange(3)]
        c = constraint_matrix(groups, 3)
        ctc = (c.T @ c).toarray()
        pen = assemble_penalty_groups(groups, 1.0, 3).toarray()
        # same kernel: vectors with equal per-component values
        u = np.tile(np.array([1.0, 2.0, 3.0]), 3)
        assert np.allclose(ctc @ u, 0.0)
        assert np.allclose(pen @ u, 0.0)
        # and same rank
        assert np.linalg.matrix_rank(ctc) == np.linalg.matrix_rank(pen)


class TestGroupValidation:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            check_contact_groups([np.array([0, 1]), np.array([1, 2])], 3)

    def test_singleton_rejected(self):
        with pytest.raises(ValueError, match="fewer"):
            check_contact_groups([np.array([0])], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            check_contact_groups([np.array([0, 5])], 3)


class TestSelectiveBlocks:
    def test_partition_complete(self):
        blocks = selective_blocks_from_groups([np.array([1, 3])], 5)
        flat = np.sort(np.concatenate(blocks))
        assert flat.tolist() == [0, 1, 2, 3, 4]

    def test_groups_first_then_singletons(self):
        blocks = selective_blocks_from_groups([np.array([1, 3])], 5)
        assert blocks[0].tolist() == [1, 3]
        assert all(b.size == 1 for b in blocks[1:])

    def test_supernodes_expand_dofs(self):
        sn = selective_block_supernodes([np.array([0, 2])], 3, b=3)
        assert sn[0].tolist() == [0, 1, 2, 6, 7, 8]
        assert sn[1].tolist() == [3, 4, 5]


class TestDetectGroups:
    def test_finds_coincident(self):
        coords = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
        groups = detect_contact_groups(coords)
        assert [g.tolist() for g in groups] == [[0, 2], [1, 3]]

    def test_tolerance(self):
        coords = np.array([[0, 0, 0], [0, 0, 1e-12]], dtype=float)
        assert len(detect_contact_groups(coords, tol=1e-9)) == 1
        assert len(detect_contact_groups(coords, tol=1e-15)) == 0

    def test_triple_coincidence(self):
        coords = np.zeros((3, 3))
        groups = detect_contact_groups(coords)
        assert len(groups) == 1 and groups[0].size == 3

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            detect_contact_groups(np.zeros(5))
