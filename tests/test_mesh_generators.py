import numpy as np
import pytest

from repro.fem.generators import box_mesh, simple_block_model, southwest_japan_model
from repro.fem.mesh import Mesh


class TestMesh:
    def test_counts(self, box3):
        assert box3.n_nodes == 4**3
        assert box3.n_elem == 27
        assert box3.ndof == 3 * 64

    def test_bad_coords_shape(self):
        with pytest.raises(ValueError, match="coords"):
            Mesh(coords=np.zeros((3, 2)), hexes=np.zeros((1, 8), dtype=int))

    def test_bad_hex_index(self):
        with pytest.raises(ValueError):
            Mesh(coords=np.zeros((4, 3)), hexes=np.full((1, 8), 9))

    def test_material_ids_default_zero(self, box3):
        assert np.all(box3.material_ids == 0)


class TestBoxMesh:
    def test_node_sets_cover_surfaces(self):
        m = box_mesh(2, 3, 4)
        assert m.node_sets["xmin"].size == 4 * 5
        assert m.node_sets["zmax"].size == 3 * 4
        for name in ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax"):
            assert m.node_sets[name].size > 0

    def test_no_contact_groups(self):
        assert box_mesh(2, 2, 2).contact_groups == []

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            box_mesh(0, 2, 2)

    def test_spacing(self):
        m = box_mesh(2, 2, 2, spacing=0.5)
        assert np.isclose(m.coords[:, 0].max(), 1.0)

    def test_positive_jacobians(self):
        from repro.fem.assembly import element_volumes

        m = box_mesh(3, 2, 4)
        assert np.allclose(element_volumes(m), 1.0)


class TestSimpleBlockModel:
    def test_paper_node_formula(self):
        """Node count must follow the paper's geometry exactly: the
        Table 2 configuration (20,20,15,20,20) gives 27,888 nodes."""
        nx1 = nx2 = 3
        ny, nz1, nz2 = 2, 3, 3
        m = simple_block_model(nx1, nx2, ny, nz1, nz2)
        expected = (
            (nx1 + nx2 + 1) * (ny + 1) * (nz1 + 1)
            + (nx1 + 1) * (ny + 1) * (nz2 + 1)
            + (nx2 + 1) * (ny + 1) * (nz2 + 1)
        )
        assert m.n_nodes == expected

    def test_paper_element_count(self):
        m = simple_block_model(3, 3, 2, 3, 3)
        assert m.n_elem == (6 * 2 * 3) + 2 * (3 * 2 * 3)

    def test_group_sizes_are_2_and_3(self, block_mesh_small):
        sizes = {len(g) for g in block_mesh_small.contact_groups}
        assert sizes == {2, 3}

    def test_triple_groups_on_junction_line(self, block_mesh_small):
        """Groups of 3 sit exactly on the T-junction line x=nx1, z=nz1."""
        for g in block_mesh_small.contact_groups:
            if len(g) == 3:
                c = block_mesh_small.coords[g[0]]
                assert np.isclose(c[0], 3.0) and np.isclose(c[2], 3.0)

    def test_groups_coincident(self, block_mesh_small):
        for g in block_mesh_small.contact_groups:
            assert np.allclose(
                block_mesh_small.coords[g], block_mesh_small.coords[g[0]], atol=1e-12
            )

    def test_three_materials(self, block_mesh_small):
        assert set(np.unique(block_mesh_small.material_ids)) == {0, 1, 2}

    def test_positive_jacobians(self, block_mesh_small):
        from repro.fem.assembly import element_volumes

        assert np.all(element_volumes(block_mesh_small) > 0)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            simple_block_model(0, 1, 1, 1, 1)


class TestSouthwestJapanModel:
    def test_groups_exist_with_mixed_sizes(self, swj_mesh_small):
        sizes = {len(g) for g in swj_mesh_small.contact_groups}
        assert 2 in sizes and 3 in sizes

    def test_groups_remain_coincident_after_warp(self, swj_mesh_small):
        for g in swj_mesh_small.contact_groups:
            assert np.allclose(
                swj_mesh_small.coords[g], swj_mesh_small.coords[g[0]], atol=1e-9
            )

    def test_two_plus_materials(self, swj_mesh_small):
        assert set(np.unique(swj_mesh_small.material_ids)) == {0, 1, 2}

    def test_positive_jacobians(self, swj_mesh_small):
        from repro.fem.assembly import element_volumes

        assert np.all(element_volumes(swj_mesh_small) > 0)

    def test_elements_are_distorted(self, swj_mesh_small):
        """Some elements must be genuinely non-cubic (the model's point)."""
        from repro.fem.assembly import element_volumes

        vols = element_volumes(swj_mesh_small)
        assert vols.std() / vols.mean() > 0.02

    def test_deterministic(self):
        a = southwest_japan_model(5, 4, 2, 2, seed=7)
        b = southwest_japan_model(5, 4, 2, 2, seed=7)
        assert np.allclose(a.coords, b.coords)

    def test_distortion_bound_validated(self):
        with pytest.raises(ValueError, match="distortion"):
            southwest_japan_model(4, 3, 2, 2, distortion=0.5)
