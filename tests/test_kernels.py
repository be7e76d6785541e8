"""The kernel module (repro.kernels): sweeps, products and their plan.

Four layers of coverage:

1. **Parity** — the substitution sweep against the bucketed
   ``reference_apply`` oracle to <= 1e-13, across preconditioner
   families, color counts, input dtypes, and the diagonal-only /
   empty-group edge case; the CSR, BCSR and VBR products against
   scipy's.
2. **The bench entry points** — ``get_backend()`` and ``describe()``.
3. **The substitution plan** — one flat layout, filled in place: it
   holds exactly the negated live strictly-lower entries of the factor
   (and their transpose) in sweep order, a refactor rewrites its arrays
   without allocating anything of the factor's size, and the symbolic
   phase refuses a schedule whose sweep would read a group not yet
   swept.
4. **The private scipy kernels** — what ``_sparsetools.csr_matvec`` /
   ``csr_matvecs`` must keep doing for the sweeps to be right, and the
   inputs they do not take as they come.
"""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro import kernels
from repro.experiments.workloads import block_problem, swjapan_problem
from repro.fem.generators import simple_block_model
from repro.fem.model import build_contact_problem
from repro.precond import bic, sb_bic0, scalar_ic0
from repro.precond.icfact import ICSymbolic
from repro.solvers.block_cg import _as_block_matvec
from repro.solvers.cg import _as_matvec
from repro.sparse.bcsr import BCSRMatrix
from repro.sparse.vbr import VBRMatrix


def spd_csr(ndof, seed, density=0.25):
    m = sp.random(
        ndof, ndof, density=density, random_state=np.random.RandomState(seed)
    )
    a = (m + m.T).tocsr()
    a.setdiag(np.asarray(abs(a).sum(axis=1)).reshape(-1) + 1.0)
    a.sum_duplicates()
    a.sort_indices()
    return a


def assert_close(got, want, rtol=1e-13):
    scale = max(1.0, float(np.linalg.norm(want)))
    assert float(np.linalg.norm(got - want)) <= rtol * scale


# ----------------------------------------------------------------------
# parity vs the bucketed reference oracle
# ----------------------------------------------------------------------

FAMILIES = {
    "ic0-scalar": lambda a: scalar_ic0(a),
    "bic0": lambda a: bic(a, fill_level=0),
    "bic1": lambda a: bic(a, fill_level=1),
}


class TestApplyParity:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_reference(self, family):
        a = spd_csr(36, hash(family) % 1000)
        m = FAMILIES[family](a)
        rng = np.random.default_rng(4)
        for _ in range(3):
            r = rng.normal(size=36)
            assert_close(m.apply(r), m.reference_apply(r))

    @pytest.mark.parametrize("ncolors", [0, 2, 5])
    def test_color_counts(self, ncolors):
        """Parity must hold for every multicolor schedule width."""
        a = spd_csr(45, 7 + ncolors)
        m = bic(a, fill_level=0, ncolors=ncolors)
        r = np.random.default_rng(1).normal(size=45)
        assert_close(m.apply(r), m.reference_apply(r))

    def test_sbbic_contact_problem(self):
        p = build_contact_problem(simple_block_model(3, 3, 2, 3, 3), penalty=1e6)
        m = sb_bic0(p.a, p.groups)
        rng = np.random.default_rng(11)
        for r in (rng.normal(size=p.ndof), p.b):
            assert_close(m.apply(r), m.reference_apply(r))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_dtypes(self, dtype):
        """apply() casts once; the sweep then sees float64."""
        a = spd_csr(30, 9)
        m = bic(a, fill_level=0)
        r = np.random.default_rng(2).normal(size=30).astype(dtype)
        want = m.reference_apply(np.asarray(r, dtype=np.float64))
        assert_close(m.apply(r), want)

    def test_diagonal_matrix_empty_groups(self):
        """A diagonal matrix has no off-diagonal entries at all: the
        forward sweep is its ``Dinv`` calls alone, the backward sweep has
        no step, and M^{-1} r must reduce to the exact diagonal solve."""
        d = np.linspace(1.0, 5.0, 24)
        a = sp.diags(d).tocsr()
        m = scalar_ic0(a)
        assert m._plan.fwd.data.size == m._plan.bwd.data.size == 0
        assert [step[1] for step in m._plan.fwd_steps] == [None] * len(m.schedule)
        assert m._plan.bwd_steps == []
        r = np.random.default_rng(3).normal(size=24)
        got = m.apply(r)
        assert_close(got, r / d)
        assert_close(got, m.reference_apply(r))


class TestMatvecParity:
    def test_csr_matvec(self):
        a = spd_csr(50, 21)
        x = np.random.default_rng(0).normal(size=50)
        assert_close(kernels.csr_matvec(a, x), a @ x)

    def test_bcsr_matvec(self):
        a = spd_csr(36, 22)
        mat = BCSRMatrix.from_scipy(a, b=3)
        x = np.random.default_rng(1).normal(size=36)
        assert_close(mat.matvec(x), a @ x)

    def test_vbr_matvec_variable_blocks(self):
        a = spd_csr(20, 23)
        supernodes = [
            np.arange(0, 7), np.arange(7, 9), np.arange(9, 10),
            np.arange(10, 16), np.arange(16, 20),
        ]
        mat = VBRMatrix.from_csr(a, supernodes)
        x = np.random.default_rng(2).normal(size=20)
        assert_close(mat.matvec(x), mat.to_csr() @ x)


class TestBenchEntryPoints:
    """``bench/`` calls ``kernels.get_backend().csr_matvec`` and stamps
    ``kernels.describe()`` into every result."""

    def test_get_backend_is_the_sweeps_module(self):
        a = spd_csr(20, 24)
        x = np.random.default_rng(3).normal(size=20)
        assert kernels.get_backend() is kernels.sweeps
        assert np.array_equal(kernels.get_backend().csr_matvec(a, x), kernels.csr_matvec(a, x))

    def test_describe_is_json_ready(self):
        import json

        import scipy

        info = kernels.describe()
        assert json.loads(json.dumps(info)) == info
        assert info["scipy"] == scipy.__version__


# ----------------------------------------------------------------------
# the substitution plan
# ----------------------------------------------------------------------


def live_strict_lower(m):
    """Strictly-lower blocks of ``factor_csr()``, restricted to the
    scalars the symbolic phase calls live, in the plan's numbering
    (stored zeros kept)."""
    n = m.ndof
    low = m.factor_csr().tocoo()
    mask = dataclasses.replace(m.L, data=m.symbolic._structural_mask().astype(float)).to_csr()
    assert np.array_equal(mask.indices, m.factor_csr().indices)
    block_of = np.repeat(np.arange(m.sizes.size), m.sizes)
    keep = (block_of[low.row] != block_of[low.col]) & (mask.data != 0.0)
    where = np.empty(n, dtype=np.int64)  # DOF of L -> plan row
    where[m.iperm_dof[m._plan_perm]] = np.arange(n)
    return sp.csr_matrix(
        (low.data[keep], (where[low.row[keep]], where[low.col[keep]])), shape=(n, n)
    )


PLAN_FAMILIES = {
    "sbbic0": lambda p: sb_bic0(p.a, p.groups),
    "bic0": lambda p: bic(p.a, fill_level=0),
    "bic1": lambda p: bic(p.a, fill_level=1),
    "bic2": lambda p: bic(p.a, fill_level=2),
    "ic0-scalar": lambda p: scalar_ic0(p.a),
    "sbbic0-shifted": lambda p: sb_bic0(p.a, p.groups, shift=0.05),
}


class _Fixture:
    """An ``spd_csr`` matrix dressed as a problem (no contact groups)."""

    def __init__(self, ndof, seed):
        self.a, self.groups, self.ndof = spd_csr(ndof, seed), [], ndof


PLAN_PROBLEMS = {
    "block-0.8": lambda: block_problem(0.8),
    "block-0.8-1e10": lambda: block_problem(0.8, 1e10),
    "swjapan-1.0": lambda: swjapan_problem(1.0),
    "spd-36": lambda: _Fixture(36, 41),
    "spd-45": lambda: _Fixture(45, 42),
}


@pytest.fixture(scope="module")
def plan_problems():
    """Each problem is assembled once for the module."""
    return functools.cache(lambda name: PLAN_PROBLEMS[name]())


class TestFlatSweep:
    @pytest.mark.parametrize("problem", sorted(PLAN_PROBLEMS))
    @pytest.mark.parametrize("family", sorted(PLAN_FAMILIES))
    def test_apply_and_apply_block_match_reference(self, family, problem, plan_problems):
        """Every family, vector and 8-column block, on the two
        serve-sized models and the random fixtures."""
        p = plan_problems(problem)
        m = PLAN_FAMILIES[family](p)
        rng = np.random.default_rng(12)
        r, block = rng.normal(size=p.ndof), rng.normal(size=(p.ndof, 8))
        want = m.reference_apply(r)
        want_block = np.column_stack([m.reference_apply(c) for c in block.T])
        assert_close(m.apply(r), want)
        assert_close(m.apply_block(block), want_block)

    @pytest.mark.parametrize(
        "model, scale, entries",
        [("spd", 36, None), ("swjapan", 1.0, 50_247), ("swjapan", 2.0, 397_899),
         ("block", 0.8, 55_376), ("block", 1.5, 393_946)],
    )
    def test_plan_holds_the_live_strict_lower_factor(self, model, scale, entries):
        """Per direction the plan's entries are the negated live
        strictly-lower entries of ``factor_csr()`` — nothing folded in,
        no stored scalar the structure calls dead — row by row in sweep
        order, and ``Dinv`` is the inverse diagonal blocks in that order.
        (BIC(1) on the fixture: waves, renumbered; SB-BIC(0) on the
        models, whose entry counts are pinned.)"""
        if model == "spd":
            m = bic(spd_csr(scale, 31), fill_level=1)
        else:
            p = {"swjapan": swjapan_problem, "block": block_problem}[model](scale)
            m = sb_bic0(p.a, p.groups)
        plan, n = m._plan, m.ndof
        want = live_strict_lower(m)
        assert entries in (None, want.nnz)
        for sweep, ref in ((plan.fwd, want), (plan.bwd, want.T.tocsr())):
            got = sp.csr_matrix((sweep.data, sweep.indices, sweep.indptr), shape=(n, n))
            if m.fill_level == 0:  # colour order is sweep order: already canonical
                assert got.has_sorted_indices
            got.sort_indices()
            ref.sort_indices()
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.data, -ref.data)
        # groups are the row ranges of the schedule, and a row only
        # reads groups swept before its own
        bounds = plan.group_ptr
        assert np.array_equal(
            np.diff(bounds), [m.sizes[members].sum() for members in m.schedule]
        )
        group = np.searchsorted(bounds, np.arange(n), side="right") - 1
        fwd = want.tocoo()
        assert (group[fwd.col] < group[fwd.row]).all()
        dinv = sp.csr_matrix(
            (plan.dinv_data, plan.dinv_indices, plan.dinv_indptr), shape=(n, n)
        )
        assert dinv.nnz == int((m.sizes**2).sum())
        at = 0
        blocks = m.diag_blocks_dense()
        for i in np.concatenate(m.schedule):
            k = m.sizes[i]
            assert_close(dinv[at : at + k, at : at + k].toarray(), np.linalg.inv(blocks[i]))
            at += k

    def test_refactor_refills_plan_in_place(self):
        """``a1 -> a2 -> a1`` applies like a fresh factor at ``a1``, to
        the bit, and no plan array is reallocated on the way."""
        a1 = spd_csr(30, 33)
        a2 = a1.copy()  # same pattern, different values (still SPD)
        a2.setdiag(a1.diagonal() * 2.0)
        m = bic(a1, fill_level=0)
        plan = m._plan
        buffers = (plan.fwd.data, plan.bwd.data, plan.dinv_data, plan.y, plan.t)
        r = np.random.default_rng(8).normal(size=30)
        at_a1 = m.apply(r).copy()
        m.refactor(a2)
        assert not np.array_equal(m.apply(r), at_a1)
        assert_close(m.apply(r), m.reference_apply(r))
        m.refactor(a1)
        assert m._plan is plan
        assert all(
            now is then
            for now, then in zip(
                (plan.fwd.data, plan.bwd.data, plan.dinv_data, plan.y, plan.t), buffers
            )
        )
        assert plan.dinv_data is m._dinv
        assert np.array_equal(m.apply(r), at_a1)
        assert np.array_equal(m.apply(r), bic(a1, fill_level=0).apply(r))

    @pytest.mark.parametrize("model", ["swjapan-1.0", "block-0.8"])
    def test_refactor_constructs_no_sparse_matrix(self, model, plan_problems, monkeypatch):
        """The numeric phase only gathers, multiplies and scatters: no
        scipy sparse object is built."""
        from scipy.sparse import _compressed

        p = plan_problems(model)
        m = sb_bic0(p.a, p.groups)
        built = []
        init = _compressed._cs_matrix.__init__
        monkeypatch.setattr(
            _compressed._cs_matrix,
            "__init__",
            lambda self, *a, **kw: built.append(type(self).__name__) or init(self, *a, **kw),
        )
        m.refactor(p.a)
        assert built == []

    @pytest.mark.parametrize("family", ["sbbic0", "bic0"])
    def test_refactor_allocates_less_than_the_factor(self, family, plan_problems):
        """No transient of a dmod block refactor is as large as
        ``L.data``: the plan is refilled by a gather into its own
        arrays, and the diagonal updates work group by group.  (Not
        covered, and not new: the full variant's update sweep gathers
        its triples, several per stored block, and a *scalar* factor's
        scatter gathers exactly ``nnz(L)`` values of ``A``.)"""
        p = plan_problems("block-0.8")
        m = PLAN_FAMILIES[family](p)
        tracemalloc.start()
        try:
            m.refactor(p.a)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m.L.data.nbytes

    def test_in_place_invariant_is_asserted(self):
        """Merging two dependent colours into one group puts operator
        columns inside the group's own rows: the symbolic phase must
        refuse to build a plan for it."""
        a = spd_csr(36, 34)
        sym = ICSymbolic(a, [np.arange(i, i + 3) for i in range(0, 36, 3)])
        assert len(sym.schedule) > 2
        sym._build_apply_structures()  # the real schedule passes
        sym.schedule = [np.sort(np.concatenate(sym.schedule[:2])), *sym.schedule[2:]]
        for g, members in enumerate(sym.schedule):
            sym.group_of[members] = g
        with pytest.raises(AssertionError, match="column inside its own group"):
            sym._build_apply_structures()


# ----------------------------------------------------------------------
# the private scipy kernels
# ----------------------------------------------------------------------


class TestSparsetoolsContract:
    """What :mod:`repro.kernels.sweeps` relies on from ``scipy.sparse._sparsetools``.
    A scipy release that changes it fails here, by name, instead of as a
    bad preconditioner."""

    A = sp.csr_matrix(
        np.array(
            [
                [4.0, 0.0, 1.0, 0.0, 0.0],
                [0.0, 3.0, 0.0, 2.0, 0.0],
                [1.0, 0.0, 5.0, 0.0, 1.5],
                [0.0, 2.0, 0.0, 6.0, 0.0],
                [0.5, 0.0, 1.5, 0.0, 7.0],
            ]
        )
    )

    def test_csr_matvec_accumulates_and_honours_indptr_slices(self):
        from scipy.sparse._sparsetools import csr_matvec

        a, x = self.A, np.arange(1.0, 6.0)
        y = np.full(5, 10.0)
        csr_matvec(5, 5, a.indptr, a.indices, a.data, x, y)
        assert np.array_equal(y, 10.0 + a.toarray() @ x)
        # rows 2..3 through an indptr slice over the *full* indices/data
        y = np.full(2, -1.0)
        csr_matvec(2, 5, a.indptr[2:5], a.indices, a.data, x, y)
        assert np.array_equal(y, -1.0 + (a.toarray() @ x)[2:4])

    def test_a_group_call_reads_one_vector_and_writes_a_view_of_the_other(self):
        """The sweep's call: rows ``lo..hi`` of a square operator, the
        whole of one vector read, ``lo..hi`` of *another* accumulated
        into and nothing else touched — for the vector and the panel
        kernel, and for a group whose rows have no entry at all."""
        from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

        a, dense = self.A, self.A.toarray()
        x, t = np.arange(1.0, 6.0), np.full(5, 10.0)
        csr_matvec(2, 5, a.indptr[1:4], a.indices, a.data, x, t[1:3])
        assert np.array_equal(x, np.arange(1.0, 6.0))
        assert np.array_equal(t, [10.0, 10.0 + dense[1] @ x, 10.0 + dense[2] @ x, 10.0, 10.0])
        xs, ts = np.arange(15.0).reshape(5, 3), np.full((5, 3), 10.0)
        csr_matvecs(2, 5, 3, a.indptr[1:4], a.indices, a.data, xs, ts[1:3])
        assert np.array_equal(ts[1:3], 10.0 + dense[1:3] @ xs)
        assert (ts[:1] == 10.0).all() and (ts[3:] == 10.0).all()
        # rows without entries: every offset of the slice is the same
        empty = sp.csr_matrix(np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0]]))
        t = np.full(3, 7.0)
        csr_matvec(2, 3, empty.indptr[1:], empty.indices, empty.data, np.ones(3), t[1:])
        assert np.array_equal(t, [7.0, 7.0, 7.0])

    def test_csr_matvecs_accumulates_and_honours_indptr_slices(self):
        from scipy.sparse._sparsetools import csr_matvecs

        a, x = self.A, np.arange(15.0).reshape(5, 3)
        y = np.full((5, 3), 10.0)
        csr_matvecs(5, 5, 3, a.indptr, a.indices, a.data, x, y)
        assert np.array_equal(y, 10.0 + a.toarray() @ x)
        y = np.zeros((5, 3))
        csr_matvecs(2, 5, 3, a.indptr[2:5], a.indices, a.data, x, y[2:4])
        assert np.array_equal(y[2:4], (a.toarray() @ x)[2:4])
        assert not y[:2].any() and not y[4:].any()


def int64_indexed(a):
    """*a* with int64 index arrays (the constructor would narrow them)."""
    a = a.copy()
    a.indices, a.indptr = a.indices.astype(np.int64), a.indptr.astype(np.int64)
    assert a.indices.dtype == a.indptr.dtype == np.int64
    return a


class TestKernelInputs:
    """Inputs the compiled kernels do not take as they come: normalised
    once per solve where that matters, and never a wrong answer."""

    def test_matvec_operands(self):
        a = spd_csr(40, 51)
        x = np.random.default_rng(0).normal(size=40)
        want = a @ x
        a_i64 = int64_indexed(a)
        a_f32 = a.astype(np.float32)
        strided = np.repeat(x, 2)[::2]
        assert not strided.flags.c_contiguous
        assert_close(kernels.csr_matvec(a_i64, x), want)
        assert_close(kernels.csr_matvec(a, strided), want)
        assert_close(kernels.csr_matvec(a, x.astype(np.float32)), want, rtol=1e-6)
        got = kernels.csr_matvec(a_f32, x)
        assert got.dtype == np.float64
        assert_close(got, a_f32.astype(np.float64) @ x)
        assert_close(_as_matvec(a_i64)(x), want)
        assert_close(_as_matvec(a_f32)(x), a_f32.astype(np.float64) @ x)
        assert_close(_as_matvec(a.tocsc())(strided), want)

    def test_matvec_rejects_a_wrong_size_operand(self):
        """The kernels check no bounds: the wrappers must."""
        a = spd_csr(12, 52)
        with pytest.raises(ValueError, match="shape"):
            kernels.csr_matvec(a, np.ones(11))
        with pytest.raises(ValueError, match="shape"):
            kernels.csr_matvecs(a, np.ones((13, 2)))
        with pytest.raises(ValueError, match="shape"):
            kernels.csr_matvecs(a, np.ones(12))
        rect = a[:5]
        assert_close(kernels.csr_matvec(rect, np.ones(12)), rect @ np.ones(12))

    def test_block_matvec_operands(self):
        a = spd_csr(30, 53)
        rng = np.random.default_rng(1)
        for block in (
            rng.normal(size=(30, 1)),
            rng.normal(size=(30, 4)),
            np.asfortranarray(rng.normal(size=(30, 3))),
            rng.normal(size=(30, 6))[:, ::2],
        ):
            want = a @ block
            got = kernels.csr_matvecs(a, block)
            assert got.shape == want.shape
            assert_close(got, want)
            assert_close(_as_block_matvec(a.astype(np.float32))(block),
                         a.astype(np.float32).astype(np.float64) @ block)

    @pytest.mark.parametrize("fill_level", [0, 1])
    def test_apply_operands(self, fill_level):
        """float32 / strided residuals, ``out=`` aliasing ``r``, an
        ``(n, 1)`` block and an int64-index matrix through ``apply``."""
        a = spd_csr(30, 54)
        a_i64 = int64_indexed(a)
        r = np.random.default_rng(2).normal(size=30)
        for m in (bic(a, fill_level=fill_level), bic(a_i64, fill_level=fill_level)):
            want = m.reference_apply(r)
            assert_close(m.apply(np.repeat(r, 2)[::2]), want)
            r32 = r.astype(np.float32)
            assert_close(m.apply(r32), m.reference_apply(r32.astype(np.float64)))
            alias = r.copy()
            assert m.apply(alias, out=alias) is alias
            assert_close(alias, want)
            column = r[:, None].copy()
            assert m.apply_block(column).shape == (30, 1)
            assert_close(m.apply_block(column)[:, 0], want)
            assert_close(m.apply_block(np.asfortranarray(np.column_stack([r, 2 * r])))[:, 1],
                         2 * want)
