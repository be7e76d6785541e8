"""The symbolic/numeric setup split (DESIGN.md section 9).

Property tests: a numeric-only ``refactor(a')`` on the cached symbolic
pattern must agree with a from-scratch factorization of ``a'`` — on the
factor ``L``, the inverted diagonal blocks, and the ``apply()`` output —
to <= 1e-13, across the ALM penalty range 1e3..1e6 and all BIC fill
levels.  Plus the setup-census guarantees, counted from the trace's
``ic_symbolic`` / ``ic_numeric`` spans: ``solve_nonlinear_contact`` with
penalty back-offs runs exactly one symbolic setup, and the resilience
ladder shares one BIC-family pattern phase.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import obs
from repro.fem.assembly import assemble_stiffness
from repro.fem.bc import all_dofs, apply_dirichlet, component_dofs, surface_load
from repro.fem.generators import simple_block_model
from repro.fem.model import build_contact_problem
from repro.fem.nonlinear import solve_nonlinear_contact
from repro.precond import bic, sb_bic0, scalar_ic0
from repro.precond.icfact import BlockICFactorization
from repro.resilience import PivotNudgeWarning
from repro.sparse.patterns import (
    csr_extract_map,
    csr_position_map,
    csr_union_pattern,
)

from .conftest import paper_ladder
from .ic_oracle import reference_apply

PENALTIES = [1e3, 1e4, 1e5, 1e6]


@pytest.fixture(scope="module")
def mesh():
    return simple_block_model(3, 3, 2, 3, 3)


@pytest.fixture(scope="module")
def problems(mesh):
    """The same contact model assembled at every test penalty."""
    return {lam: build_contact_problem(mesh, penalty=lam) for lam in PENALTIES}


def _setups(tracer) -> dict[str, int]:
    """The set-up phases an ``obs.observe()`` tracer recorded: one
    ``ic_symbolic`` / ``ic_numeric`` span each."""
    return {phase: tracer.count(f"ic_{phase}") for phase in ("symbolic", "numeric")}


def _assert_same_factorization(refd, fresh, r):
    assert refd.L.data == pytest.approx(fresh.L.data, rel=1e-13, abs=1e-16)
    assert refd._dinv == pytest.approx(fresh._dinv, rel=1e-13, abs=1e-16)
    za, zb = refd.apply(r), fresh.apply(r)
    scale = max(float(np.abs(zb).max()), 1e-300)
    assert np.abs(za - zb).max() / scale <= 1e-13


class TestRefactorAgreesWithFresh:
    @pytest.mark.parametrize("penalty", PENALTIES)
    def test_sbbic_across_penalties(self, problems, penalty):
        base = problems[PENALTIES[-1]]
        m = sb_bic0(base.a, base.groups)
        p = problems[penalty]
        m.refactor(p.a)
        fresh = sb_bic0(p.a, p.groups)
        r = np.random.default_rng(3).standard_normal(p.ndof)
        _assert_same_factorization(m, fresh, r)

    @pytest.mark.parametrize("fill_level", [0, 1, 2])
    @pytest.mark.parametrize("penalty", [1e3, 1e6])
    def test_bic_all_levels(self, problems, fill_level, penalty):
        base = problems[1e4]
        m = bic(base.a, fill_level=fill_level)
        p = problems[penalty]
        m.refactor(p.a)
        fresh = bic(p.a, fill_level=fill_level)
        r = np.random.default_rng(4).standard_normal(p.ndof)
        _assert_same_factorization(m, fresh, r)

    def test_scalar_ic0(self, problems):
        m = scalar_ic0(problems[1e6].a)
        m.refactor(problems[1e3].a)
        fresh = scalar_ic0(problems[1e3].a)
        r = np.random.default_rng(5).standard_normal(problems[1e3].ndof)
        _assert_same_factorization(m, fresh, r)

    def test_shift_refactor_matches_fresh_shifted(self, problems):
        p = problems[1e5]
        m = bic(p.a, fill_level=0)
        m.refactor(shift=0.25)
        fresh = bic(p.a, fill_level=0, shift=0.25)
        r = np.random.default_rng(6).standard_normal(p.ndof)
        _assert_same_factorization(m, fresh, r)

    def test_shared_symbolic_constructor(self, problems):
        """sb_bic0(symbolic=...) skips the pattern phase, same numerics."""
        p6, p3 = problems[1e6], problems[1e3]
        m6 = sb_bic0(p6.a, p6.groups)
        with obs.observe() as tracer:
            m3 = sb_bic0(p3.a, p3.groups, symbolic=m6.symbolic)
        assert _setups(tracer) == {"symbolic": 0, "numeric": 1}
        fresh = sb_bic0(p3.a, p3.groups)
        r = np.random.default_rng(7).standard_normal(p3.ndof)
        _assert_same_factorization(m3, fresh, r)

    def test_reference_apply_invalidated_by_refactor(self, problems):
        p6, p3 = problems[1e6], problems[1e3]
        m = sb_bic0(p6.a, p6.groups)
        reference_apply(m, np.zeros(p6.ndof))  # the oracle reads the factor of its call
        m.refactor(p3.a)
        fresh = sb_bic0(p3.a, p3.groups)
        r = np.random.default_rng(8).standard_normal(p3.ndof)
        assert reference_apply(m, r) == pytest.approx(reference_apply(fresh, r))

    def test_apply_m_invalidated_by_refactor(self, problems):
        """``apply_m`` keeps the factor it read until the next refactor."""
        p6, p3 = problems[1e6], problems[1e3]
        m = sb_bic0(p6.a, p6.groups)
        v = np.random.default_rng(8).standard_normal(p6.ndof)
        at_p6 = m.apply_m(v)
        m.refactor(p3.a)
        fresh = sb_bic0(p3.a, p3.groups)
        assert not np.allclose(m.apply_m(v), at_p6)
        assert np.array_equal(m.apply_m(v), fresh.apply_m(v))


class TestValueSets:
    """``swap_values``: a factor keeps the value set it replaced last
    and trades it back without a numeric phase."""

    def test_swapped_back_applies_as_a_fresh_refactor_bit_for_bit(self, problems):
        p6, p3 = problems[1e6], problems[1e3]
        m = sb_bic0(p6.a, p6.groups)
        m.swap_values()
        m.refactor(p3.a)
        with obs.observe() as tracer:
            m.swap_values()
        assert _setups(tracer) == {"symbolic": 0, "numeric": 0}
        assert m.factorization_stats()["numeric_setups"] == 2
        fresh = sb_bic0(p3.a, p3.groups, symbolic=m.symbolic).refactor(p6.a)
        rng = np.random.default_rng(9)
        r, block = rng.standard_normal(p6.ndof), rng.standard_normal((p6.ndof, 3))
        assert np.array_equal(m.apply(r), fresh.apply(r))
        assert np.array_equal(m.apply_block(block), fresh.apply_block(block))
        for ours, theirs in ((m.L.data, fresh.L.data), (m._dinv, fresh._dinv),
                             (m.plan.fwd.data, fresh.plan.fwd.data),
                             (m.plan.bwd.data, fresh.plan.bwd.data)):
            assert np.array_equal(ours, theirs)
        assert m.plan.dinv_data is m._dinv
        m.swap_values()  # and the other set is the λ=1e3 factor
        assert np.array_equal(m.apply(r), sb_bic0(p3.a, p3.groups).apply(r))

    def test_the_pivot_census_and_apply_m_follow_the_values(self):
        """A nudged value set swapped back brings its nudges back, and
        ``apply_m`` describes the swapped-in factor."""
        rows, cols = [0, 1, 1, 2, 2], [0, 1, 2, 1, 2]

        def op(d0):  # the zero pivot is stored: one pattern for both
            return sp.csr_matrix(([d0, 4.0, 1.0, 1.0, 4.0], (rows, cols)), shape=(3, 3))

        parts = [np.array([0]), np.array([1, 2])]
        with pytest.warns(PivotNudgeWarning):
            m = BlockICFactorization(op(0.0), parts)
        with pytest.warns(PivotNudgeWarning):
            nudged = BlockICFactorization(op(0.0), parts)
        v = np.array([1.0, -2.0, 0.5])
        m.swap_values()
        m.refactor(op(2.0))
        assert m.factorization_stats()["pivot_nudges"] == 0
        assert np.array_equal(m.apply_m(v), BlockICFactorization(op(2.0), parts).apply_m(v))
        m.swap_values()
        assert m.breakdown_count == 1 and m.nudged_block_sizes == [1]
        assert np.array_equal(m.apply_m(v), nudged.apply_m(v))

    def test_the_spare_is_counted_once_it_exists(self, problems):
        p = problems[1e6]
        m = sb_bic0(p.a, p.groups)
        before, factor = m.factorization_stats(), m.memory_bytes()
        assert before["spare_bytes"] == 0
        m.swap_values()
        after, plan = m.factorization_stats(), m.plan
        sweeps = plan.fwd.data.nbytes + plan.bwd.data.nbytes
        assert after["spare_bytes"] == m.L.data.nbytes + m._dinv.nbytes + sweeps
        assert after["plan_bytes"] == before["plan_bytes"] + sweeps
        assert m.memory_bytes() == factor  # Tables 2 and 4 count one factor


class TestInvalidation:
    def test_pattern_change_raises(self, problems):
        p = problems[1e6]
        m = sb_bic0(p.a, p.groups)
        other = sp.identity(p.ndof, format="csr")
        with pytest.raises(ValueError, match="pattern"):
            m.refactor(other)

    def test_symbolic_mismatch_raises(self, problems):
        p = problems[1e6]
        m = bic(p.a, fill_level=0)
        with pytest.raises(ValueError, match="symbolic"):
            bic(p.a, fill_level=1, symbolic=m.symbolic)

    def test_stats_count_setups(self, problems):
        p = problems[1e6]
        m = sb_bic0(p.a, p.groups)
        stats = m.factorization_stats()
        assert stats["symbolic_setups"] == 1
        assert stats["numeric_setups"] == 1
        m.refactor(problems[1e3].a)
        m.refactor(problems[1e4].a)
        stats = m.factorization_stats()
        assert stats["numeric_setups"] == 3
        shared = sb_bic0(p.a, p.groups, symbolic=m.symbolic)
        assert shared.factorization_stats()["symbolic_setups"] == 0


@pytest.fixture(scope="module")
def alm_system():
    mesh = simple_block_model(2, 2, 2, 2, 2)
    k = assemble_stiffness(mesh)
    f = surface_load(mesh, mesh.node_sets["zmax"], np.array([0.0, 0.0, -1.0]))
    fixed = np.unique(
        np.concatenate(
            [
                all_dofs(mesh.node_sets["zmin"]),
                component_dofs(mesh.node_sets["xmin"], 0),
                component_dofs(mesh.node_sets["ymin"], 1),
            ]
        )
    )
    a_free, b = apply_dirichlet(k.to_csr(), f, fixed)
    return mesh, a_free, b


class _PoisonFirstSolve:
    """Wraps a real factorization; returns NaN until the first refactor.

    Forces the ALM driver down the penalty back-off path while keeping a
    preconditioner that supports numeric-only refactorization.
    """

    def __init__(self, inner):
        self.inner = inner
        self.poisoned = True
        self.name = inner.name
        self.setup_seconds = inner.setup_seconds

    def apply(self, r, out=None):
        z = self.inner.apply(r, out=out)
        if self.poisoned:
            z[:] = np.nan
        return z

    def refactor(self, a=None, **kw):
        self.inner.refactor(a, **kw)
        self.poisoned = False
        return self


class TestSingleSymbolicSetupInALM:
    def test_backoff_refactors_instead_of_rebuilding(self, alm_system):
        """>= 1 penalty back-off, exactly one symbolic setup (the
        acceptance criterion of the symbolic/numeric split)."""
        mesh, a_free, b = alm_system
        calls = []

        def factory(a):
            calls.append(_PoisonFirstSolve(bic(a, fill_level=0)))
            return calls[-1]

        with obs.observe() as tracer:
            res = solve_nonlinear_contact(
                a_free,
                b,
                mesh.contact_groups,
                mesh.n_nodes,
                penalty=1e4,
                precond_factory=factory,
            )
        assert res.penalty_backoffs >= 1
        assert res.converged
        assert len(calls) == 1  # the factory ran once; back-off refactored
        assert _setups(tracer) == {"symbolic": 1, "numeric": 1 + res.penalty_backoffs}
        assert calls[0].inner.numeric_setup_count == 1 + res.penalty_backoffs

    def test_healthy_run_single_setup(self, alm_system):
        mesh, a_free, b = alm_system
        with obs.observe() as tracer:
            res = solve_nonlinear_contact(
                a_free,
                b,
                mesh.contact_groups,
                mesh.n_nodes,
                penalty=1e4,
                precond_factory=lambda a: bic(a, fill_level=0),
            )
        assert res.converged and res.penalty_backoffs == 0
        assert _setups(tracer) == {"symbolic": 1, "numeric": 1}

    def test_build_system_matches_explicit_sum(self, alm_system):
        """The values-only union-pattern build equals A_free + lam C^T C
        for every penalty, including after an in-place penalty change."""
        from repro.fem.contact import constraint_matrix

        mesh, a_free, b = alm_system
        c = constraint_matrix(mesh.contact_groups, mesh.n_nodes)
        ctc = (c.T @ c).tocsr()
        ctc.sum_duplicates()
        ctc.sort_indices()
        af = sp.csr_matrix(a_free)
        af.sum_duplicates()
        af.sort_indices()
        u = csr_union_pattern(af, ctc)
        mf = csr_position_map(u, af)
        mc = csr_position_map(u, ctc)
        for lam in (1e4, 1e3, 1e2):  # mirrors a back-off sequence
            u.data[:] = 0.0
            u.data[mf] = af.data
            u.data[mc] += lam * ctc.data
            explicit = (a_free + lam * ctc).tocsr()
            assert abs(u - explicit).max() <= 1e-12 * abs(explicit).max()


class TestLadderSharesSymbolic:
    def test_bic_family_rungs_share_pattern_phase(self, alm_system):
        mesh, a_free, b = alm_system
        p = build_contact_problem(simple_block_model(2, 2, 2, 2, 2), penalty=1e4)
        ladder = paper_ladder(p.a, p.groups)
        names = [s.name for s in ladder]
        assert names[0] == "SB-BIC(0)" and names[1] == "BIC(0)"
        with obs.observe() as tracer:
            m_plain = ladder[1].build()
            m_shift1 = ladder[2].build()
            m_shift2 = ladder[3].build()
        # one pattern phase for the family
        assert _setups(tracer) == {"symbolic": 1, "numeric": 3}
        assert m_shift1 is m_plain and m_shift2 is m_plain  # refactored rung
        # the escalated rung numerically equals a fresh shifted build
        dbar = float(np.abs(p.a.diagonal()).mean())
        fresh = bic(p.a, fill_level=0, shift=0.1 * dbar)
        r = np.random.default_rng(10).standard_normal(p.ndof)
        assert m_shift2.apply(r) == pytest.approx(fresh.apply(r), rel=1e-13)

    def test_shifted_rung_without_plain_build(self, alm_system):
        """Escalating straight to a shifted rung still works standalone."""
        p = build_contact_problem(simple_block_model(2, 2, 2, 2, 2), penalty=1e4)
        ladder = paper_ladder(p.a, p.groups)
        dbar = float(np.abs(p.a.diagonal()).mean())
        m = ladder[2].build()  # first BIC-family build is the shifted one
        fresh = bic(p.a, fill_level=0, shift=0.01 * dbar)
        r = np.random.default_rng(11).standard_normal(p.ndof)
        assert m.apply(r) == pytest.approx(fresh.apply(r), rel=1e-13)


class TestPatternUtilities:
    def test_union_pattern_and_position_maps(self):
        rng = np.random.default_rng(13)
        a = sp.random(30, 30, density=0.1, random_state=42).tocsr()
        a.sum_duplicates()
        a.sort_indices()
        d = sp.diags(rng.standard_normal(30)).tocsr()
        u = csr_union_pattern(a, d)
        ma = csr_position_map(u, a)
        md = csr_position_map(u, d)
        u.data[:] = 0.0
        u.data[ma] = a.data
        u.data[md] += 2.5 * d.data
        dense = (a + 2.5 * d).toarray()
        assert u.toarray() == pytest.approx(dense)

    def test_union_keeps_exact_cancellations(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        b = sp.csr_matrix(np.array([[-1.0, -2.0], [0.0, 0.0]]))
        b.eliminate_zeros()
        u = csr_union_pattern(a, b)
        assert u.nnz == 3  # (0,0),(0,1),(1,1) survive despite value cancel

    def test_position_map_rejects_foreign_entries(self):
        a = sp.identity(4, format="csr")
        full = sp.csr_matrix(np.ones((4, 4)))
        with pytest.raises(ValueError):
            csr_position_map(a, full)

    def test_extract_map_regathers(self):
        rng = np.random.default_rng(14)
        a = sp.random(40, 40, density=0.15, random_state=7).tocsr()
        a = (a + a.T).tocsr()
        a.sum_duplicates()
        a.sort_indices()
        idx = np.array([3, 5, 8, 13, 21, 34])
        sub, gather = csr_extract_map(a, idx)
        assert sub.toarray() == pytest.approx(a[idx][:, idx].toarray())
        a.data *= -3.0
        sub.data[:] = a.data[gather]
        assert sub.toarray() == pytest.approx(a[idx][:, idx].toarray())

    def test_vbr_empty_like_shares_structure(self, problems):
        p = problems[1e6]
        m = sb_bic0(p.a, p.groups)
        twin = m.L.empty_like()
        assert twin.indptr is m.L.indptr and twin.boff is m.L.boff
        assert twin.data.size == m.L.data.size and not twin.data.any()
