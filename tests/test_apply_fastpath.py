"""Compiled-CSR substitution fast path vs the bucketed reference oracle.

``BlockICFactorization.apply`` sweeps the flat substitution plan with
direct calls of scipy's compiled CSR kernels; ``ic_oracle.reference_apply`` keeps
the original per-bucket gather/matmul/scatter loops.  These tests pin the two paths together across every
preconditioner family the paper uses, on random SPD block systems and on
a real contact problem with a large penalty.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.generators import simple_block_model
from repro.fem.model import build_contact_problem
from repro.precond import bic, sb_bic0, scalar_ic0
from repro.precond.base import Preconditioner
from repro.solvers.cg import cg_solve

from .ic_oracle import bucketed, reference_apply


def spd_csr(ndof, seed, density=0.25):
    m = sp.random(
        ndof, ndof, density=density, random_state=np.random.RandomState(seed)
    )
    a = (m + m.T).tocsr()
    a.setdiag(np.asarray(abs(a).sum(axis=1)).reshape(-1) + 1.0)
    a.sum_duplicates()
    a.sort_indices()
    return a


def agree(m, r, rtol=1e-13):
    ref = reference_apply(m, r)
    fast = m.apply(r)
    assert np.linalg.norm(fast - ref) <= rtol * max(1.0, np.linalg.norm(ref))


FAMILIES = {
    "ic0-scalar": lambda a: scalar_ic0(a),
    "bic0": lambda a: bic(a, fill_level=0),
    "bic1": lambda a: bic(a, fill_level=1),
    "bic2": lambda a: bic(a, fill_level=2),
}


class TestFastPathAgreement:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_reference(self, family):
        a = spd_csr(36, hash(family) % 1000)
        m = FAMILIES[family](a)
        rng = np.random.default_rng(3)
        for _ in range(4):
            agree(m, rng.normal(size=36))

    def test_sbbic_on_contact_problem_large_penalty(self):
        p = build_contact_problem(simple_block_model(3, 3, 2, 3, 3), penalty=1e6)
        m = sb_bic0(p.a, p.groups)
        rng = np.random.default_rng(11)
        for _ in range(3):
            agree(m, rng.normal(size=p.ndof))
        agree(m, p.b)

    def test_buffer_reuse_is_stateless(self):
        """Repeated applies with different inputs must not leak state
        through the preallocated work vectors."""
        a = spd_csr(24, 5)
        m = bic(a, fill_level=0)
        rng = np.random.default_rng(6)
        r1, r2 = rng.normal(size=24), rng.normal(size=24)
        first = m.apply(r1).copy()
        m.apply(r2)
        assert np.array_equal(m.apply(r1), first)

    def test_out_buffer(self):
        a = spd_csr(24, 7)
        m = bic(a, fill_level=0)
        r = np.random.default_rng(8).normal(size=24)
        out = np.empty(24)
        res = m.apply(r, out=out)
        assert res is out
        assert np.array_equal(out, m.apply(r))

    def test_cg_iterates_identical_to_reference_path(self):
        """CG driven by the fast apply must reproduce the solve of the
        bucketed path (same solution, same iteration count +-1)."""

        class RefWrapper(Preconditioner):
            def __init__(self, m):
                self._apply = bucketed(m)
                self.name = m.name + " (reference)"
                self.setup_seconds = m.setup_seconds

            def apply(self, r):
                return self._apply(r)

        p = build_contact_problem(simple_block_model(3, 3, 2, 3, 3), penalty=1e6)
        m = sb_bic0(p.a, p.groups)
        fast = cg_solve(p.a, p.b, m)
        ref = cg_solve(p.a, p.b, RefWrapper(m))
        assert fast.converged and ref.converged
        assert abs(fast.iterations - ref.iterations) <= 1
        assert np.allclose(fast.x, ref.x, atol=1e-6 * max(1.0, np.abs(ref.x).max()))


@settings(max_examples=15, deadline=None)
@given(
    nblocks=st.integers(3, 10),
    seed=st.integers(0, 10_000),
    k=st.integers(0, 2),
)
def test_property_fast_path_matches_reference(nblocks, seed, k):
    ndof = 3 * nblocks
    a = spd_csr(ndof, seed)
    m = bic(a, fill_level=k)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        agree(m, rng.normal(size=ndof))
