import numpy as np
import pytest

from repro.fem.hex8 import distinct_elements, hex8_stiffness, shape_gradients_reference
from repro.fem.material import IsotropicElastic

UNIT_CUBE = np.array(
    [
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ],
    dtype=float,
)


class TestMaterial:
    def test_lame_parameters(self):
        m = IsotropicElastic(1.0, 0.25)
        assert np.isclose(m.lame_mu, 0.4)
        assert np.isclose(m.lame_lambda, 0.4)

    def test_d_matrix_symmetric_positive_definite(self):
        d = IsotropicElastic(2.0, 0.3).elasticity_matrix()
        assert np.allclose(d, d.T)
        assert np.all(np.linalg.eigvalsh(d) > 0)

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            IsotropicElastic(-1.0, 0.3)

    def test_invalid_poisson(self):
        with pytest.raises(ValueError):
            IsotropicElastic(1.0, 0.5)

    def test_uniaxial_stress_recovers_youngs_modulus(self):
        """D with sigma_yy = sigma_zz = 0 must give E in the xx relation."""
        d = IsotropicElastic(3.0, 0.3).elasticity_matrix()
        c = np.linalg.inv(d)  # compliance
        assert np.isclose(1.0 / c[0, 0], 3.0)


class TestShapeFunctions:
    def test_gradients_sum_to_zero(self):
        """Partition of unity: sum_n N_n = 1 so gradients sum to zero."""
        dn = shape_gradients_reference()
        assert np.allclose(dn.sum(axis=1), 0.0)

    def test_linear_field_reproduced(self):
        """Gradients must reproduce d(xi)/d(xi) = e_x exactly."""
        dn = shape_gradients_reference()
        from repro.fem.hex8 import _XI_NODES

        vals = _XI_NODES[:, 0]  # nodal values of the field f = xi
        grad = np.einsum("gnd,n->gd", dn, vals)
        assert np.allclose(grad, [1.0, 0.0, 0.0])


class TestHex8Stiffness:
    def test_symmetric(self):
        ke = hex8_stiffness(UNIT_CUBE, np.arange(8)[None, :], IsotropicElastic())
        assert np.allclose(ke[0], ke[0].T)

    def test_positive_semidefinite_with_six_rigid_modes(self):
        ke = hex8_stiffness(UNIT_CUBE, np.arange(8)[None, :], IsotropicElastic())[0]
        vals = np.linalg.eigvalsh(ke)
        assert np.all(vals > -1e-10)
        assert np.sum(np.abs(vals) < 1e-10) == 6  # 3 translations + 3 rotations

    def test_translation_in_kernel(self):
        ke = hex8_stiffness(UNIT_CUBE, np.arange(8)[None, :], IsotropicElastic())[0]
        for comp in range(3):
            u = np.zeros(24)
            u[comp::3] = 1.0
            assert np.allclose(ke @ u, 0.0, atol=1e-12)

    def test_rotation_in_kernel(self):
        ke = hex8_stiffness(UNIT_CUBE, np.arange(8)[None, :], IsotropicElastic())[0]
        # infinitesimal rotation about z: u = (-y, x, 0)
        u = np.zeros(24)
        u[0::3] = -UNIT_CUBE[:, 1]
        u[1::3] = UNIT_CUBE[:, 0]
        assert np.allclose(ke @ u, 0.0, atol=1e-10)

    def test_uniform_strain_patch(self):
        """Linear displacement field -> constant strain: energy must match
        the exact continuum value (hex8 integrates it exactly)."""
        mat = IsotropicElastic(1.0, 0.3)
        ke = hex8_stiffness(UNIT_CUBE, np.arange(8)[None, :], mat)[0]
        eps = 0.01
        u = np.zeros(24)
        u[0::3] = eps * UNIT_CUBE[:, 0]  # u_x = eps * x
        energy = 0.5 * u @ ke @ u
        d = mat.elasticity_matrix()
        exact = 0.5 * d[0, 0] * eps**2  # volume = 1
        assert np.isclose(energy, exact, rtol=1e-12)

    def test_scaling_with_element_size(self):
        """K scales linearly with element edge length in 3D elasticity."""
        k1 = hex8_stiffness(UNIT_CUBE, np.arange(8)[None, :], IsotropicElastic())[0]
        k2 = hex8_stiffness(2.0 * UNIT_CUBE, np.arange(8)[None, :], IsotropicElastic())[0]
        assert np.allclose(k2, 2.0 * k1)

    def test_inverted_element_rejected(self):
        bad = UNIT_CUBE.copy()
        bad[[0, 1]] = bad[[1, 0]]  # swap two corners -> negative Jacobian
        with pytest.raises(ValueError, match="Jacobian"):
            hex8_stiffness(bad, np.arange(8)[None, :], IsotropicElastic())

    def test_per_element_materials(self):
        hexes = np.vstack([np.arange(8), np.arange(8)])
        d1 = IsotropicElastic(1.0, 0.3).elasticity_matrix()
        d2 = IsotropicElastic(2.0, 0.3).elasticity_matrix()
        ke = hex8_stiffness(UNIT_CUBE, hexes, np.stack([d1, d2]))
        assert np.allclose(ke[1], 2.0 * ke[0])

    def test_bad_material_shape_rejected(self):
        with pytest.raises(ValueError, match="per-element"):
            hex8_stiffness(UNIT_CUBE, np.arange(8)[None, :], np.zeros((2, 6, 6)))

    def test_distorted_element_still_psd(self):
        rng = np.random.default_rng(0)
        coords = UNIT_CUBE + rng.uniform(-0.15, 0.15, size=(8, 3))
        ke = hex8_stiffness(coords, np.arange(8)[None, :], IsotropicElastic())[0]
        assert np.all(np.linalg.eigvalsh(ke) > -1e-10)


class TestDistinctElements:
    """One stiffness per distinct (shape, material): which elements share."""

    def test_translated_copies_share_one_representative(self):
        """A warped element repeated at another place, among others."""
        rng = np.random.default_rng(4)
        # coordinates on a 1/1024 grid, so that a shift by integers is exact
        # and the copy's local coordinates are the same bytes
        warped = UNIT_CUBE + rng.integers(-100, 100, (8, 3)) / 1024.0
        other = UNIT_CUBE + rng.integers(-100, 100, (8, 3)) / 1024.0
        shift = np.array([4.0, -2.0, 8.0])
        coords = np.vstack([warped, other + 16.0, warped + shift])
        hexes = np.arange(24).reshape(3, 8)
        first, inverse = distinct_elements(coords, hexes)
        assert sorted(first.tolist()) == [0, 1]
        assert inverse[0] == inverse[2] != inverse[1]
        ke = hex8_stiffness(coords, hexes, IsotropicElastic())
        assert np.array_equal(ke[0], ke[2]) and not np.array_equal(ke[0], ke[1])
        # the shared matrix is the one the element gets on its own
        assert np.array_equal(ke[2], hex8_stiffness(coords, hexes[2:], IsotropicElastic())[0])

    def test_material_id_is_part_of_the_key(self):
        coords = np.vstack([UNIT_CUBE, UNIT_CUBE + 2.0])
        hexes = np.arange(16).reshape(2, 8)
        assert distinct_elements(coords, hexes)[0].size == 1
        first, inverse = distinct_elements(coords, hexes, np.array([0, 1]))
        assert first.size == 2 and inverse[0] != inverse[1]

    def test_a_shape_is_what_the_kernel_reads(self):
        """Far from the origin the Jacobian sees the same element: local
        coordinates, not the rounding of ``dN^T @ xyz`` at 1e6."""
        near = hex8_stiffness(UNIT_CUBE, np.arange(8)[None, :], IsotropicElastic())[0]
        far = hex8_stiffness(UNIT_CUBE + 2.0**20, np.arange(8)[None, :], IsotropicElastic())[0]
        assert np.array_equal(near, far)
