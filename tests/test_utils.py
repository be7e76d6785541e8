import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    Timer,
    check_contact_groups,
    check_finite_coords,
    check_index_array,
    check_square_csr,
    check_symmetric,
)
from repro.utils.indexing import chunks


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


class TestChunks:
    """:func:`repro.utils.indexing.chunks`: consecutive runs that cover
    the items once, in order, each within the budget unless one item
    alone exceeds it."""

    @staticmethod
    def check(runs, n, budget, sizes):
        assert [r.step for r in runs] == [None] * len(runs)
        bounds = [r.start for r in runs] + [n]
        assert bounds[0] == 0 and [r.stop for r in runs] == bounds[1:]
        assert all(r.start < r.stop for r in runs)
        for r in runs:
            held = int(sizes[r].sum())
            assert held <= budget or r.stop - r.start == 1
            # greedy: the next item would not have fitted
            if r.stop < n:
                assert held + sizes[r.stop] > budget

    def test_cases(self):
        assert chunks(0, 8) == []
        assert chunks(5, 100, 3) == [slice(0, 5)]  # one run
        assert chunks(6, 6, 3) == [slice(0, 2), slice(2, 4), slice(4, 6)]  # an exact multiple
        assert chunks(7, 6, 3) == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 7)]  # a remainder
        assert chunks(3, 2, 5) == [slice(0, 1), slice(1, 2), slice(2, 3)]  # items over budget
        ptr = np.array([0, 4, 4, 9, 10, 30, 31])
        assert chunks(6, 10, ptr) == [slice(0, 4), slice(4, 5), slice(5, 6)]
        assert chunks(0, 10, np.zeros(1, dtype=np.int64)) == []

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 60),
        budget=st.integers(1, 50),
        width=st.integers(1, 12),
    )
    def test_uniform_width(self, n, budget, width):
        self.check(chunks(n, budget, width), n, budget, np.full(n, width))

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 20), max_size=60),
        budget=st.integers(1, 50),
    )
    def test_offsets(self, sizes, budget):
        sizes = np.array(sizes, dtype=np.int64)
        ptr = np.concatenate(([0], np.cumsum(sizes)))
        self.check(chunks(sizes.size, budget, ptr), sizes.size, budget, sizes)


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
