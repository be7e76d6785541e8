import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.utils import (
    Timer,
    check_contact_groups,
    check_finite_coords,
    check_index_array,
    check_square_csr,
    check_symmetric,
)


class TestTimer:
    def test_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.01)
        first = t.elapsed
        with t:
            time.sleep(0.01)
        assert t.elapsed > first

    def test_initial_zero(self):
        assert Timer().elapsed == 0.0

    def test_nested_entry_raises(self):
        # regression: a nested `with t:` used to silently overwrite the
        # start stamp, losing the outer interval
        t = Timer()
        with pytest.raises(RuntimeError, match="already running"):
            with t:
                with t:
                    pass

    def test_outer_interval_survives_nested_attempt(self):
        t = Timer()
        try:
            with t:
                time.sleep(0.01)
                with t:
                    pass
        except RuntimeError:
            pass
        assert t.elapsed >= 0.01
        # and the timer is usable again afterwards
        with t:
            pass


class TestCheckIndexArray:
    def test_valid(self):
        a = check_index_array(np.array([0, 1, 2]), 3)
        assert a.tolist() == [0, 1, 2]

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            check_index_array(np.array([0, 3]), 3)

    def test_negative(self):
        with pytest.raises(ValueError, match="outside"):
            check_index_array(np.array([-1]), 3)

    def test_non_integer(self):
        with pytest.raises(ValueError, match="integer"):
            check_index_array(np.array([0.5]), 3)

    def test_wrong_ndim(self):
        with pytest.raises(ValueError, match="1-D"):
            check_index_array(np.zeros((2, 2), dtype=int), 4)

    def test_empty_ok(self):
        assert check_index_array(np.array([], dtype=int), 0).size == 0


class TestCheckSquareCsr:
    def test_coerces(self):
        a = check_square_csr(sp.eye(3).tocoo())
        assert sp.issparse(a) and a.format == "csr"

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            check_square_csr(sp.random(3, 4, density=0.5))


class TestCheckSymmetric:
    def test_symmetric_passes(self):
        a = sp.eye(4).tocsr()
        check_symmetric(a)

    def test_asymmetric_raises(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="not symmetric"):
            check_symmetric(a)


class TestCheckFiniteCoords:
    def test_clean_coords_pass_through(self):
        coords = np.zeros((5, 3))
        out = check_finite_coords(coords)
        assert out.dtype == np.float64

    def test_nan_coordinate_named(self):
        coords = np.zeros((5, 3))
        coords[3, 1] = np.nan
        with pytest.raises(ValueError, match="node 3"):
            check_finite_coords(coords)

    def test_inf_coordinate_rejected(self):
        coords = np.zeros((4, 3))
        coords[0, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            check_finite_coords(coords)

    def test_assembly_rejects_poisoned_mesh(self):
        """The check fires before assembly, not hundreds of CG iterations
        later as a NAN_DETECTED breakdown."""
        from repro.fem.assembly import assemble_stiffness
        from repro.fem.generators import box_mesh

        mesh = box_mesh(2, 2, 2)
        mesh.coords[5, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            assemble_stiffness(mesh)


class TestCheckContactGroups:
    def test_valid_groups_coerced_to_int64(self):
        out = check_contact_groups([np.array([0, 1]), [2, 3]], 4)
        assert all(g.dtype == np.int64 for g in out)

    def test_duplicate_within_group_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            check_contact_groups([np.array([0, 1, 1])], 4)

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            check_contact_groups([np.array([0, 1]), np.array([1, 2])], 4)

    def test_singleton_group_rejected(self):
        with pytest.raises(ValueError, match="fewer than 2"):
            check_contact_groups([np.array([0])], 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            check_contact_groups([np.array([0, 9])], 4)
