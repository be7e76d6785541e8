"""The kernel module (repro.kernels): sweeps, products and their plan.

Five layers of coverage:

1. **Parity** — the substitution sweep against the bucketed
   ``ic_oracle.reference_apply`` oracle to <= 1e-13, across preconditioner
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
   ``csr_matvecs`` must keep doing for the sweeps to be right (releasing
   the GIL included), and the inputs they do not take as they come.
5. **The split product** — a solve on at least ``team.TEAM_NNZ``
   nonzeros forks a partner process (the *helper* of the test names)
   that computes one row range of every product: bit-identical to the
   one-call product and to the solves without it, one process while
   another solve holds the team, a partner's death absorbed and a
   caller's error raised with no partner left behind, and no team in a
   forked child.  ``tests/test_team.py`` has the rest of the team.
"""

import dataclasses
import functools
import hashlib
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro import block_cg_solve, cg_solve, kernels, obs
from repro.experiments.workloads import block_problem, swjapan_problem
from repro.fem.generators import simple_block_model
from repro.fem.model import build_contact_problem
from repro.kernels import team
from repro.kernels.plans import plan_structure
from repro.precond import bic, sb_bic0, scalar_ic0
from repro.precond.icfact import ICSymbolic
from repro.solvers.block_cg import _as_block_matvec
from repro.solvers.cg import _as_matvec
from repro.sparse.bcsr import BCSRMatrix
from repro.utils.workers import Workers

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
            assert_close(m.apply(r), reference_apply(m, r))

    @pytest.mark.parametrize("ncolors", [0, 2, 5])
    def test_color_counts(self, ncolors):
        """Parity must hold for every multicolor schedule width."""
        a = spd_csr(45, 7 + ncolors)
        m = bic(a, fill_level=0, ncolors=ncolors)
        r = np.random.default_rng(1).normal(size=45)
        assert_close(m.apply(r), reference_apply(m, r))

    def test_sbbic_contact_problem(self):
        p = build_contact_problem(simple_block_model(3, 3, 2, 3, 3), penalty=1e6)
        m = sb_bic0(p.a, p.groups)
        rng = np.random.default_rng(11)
        for r in (rng.normal(size=p.ndof), p.b):
            assert_close(m.apply(r), reference_apply(m, r))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_dtypes(self, dtype):
        """apply() casts once; the sweep then sees float64."""
        a = spd_csr(30, 9)
        m = bic(a, fill_level=0)
        r = np.random.default_rng(2).normal(size=30).astype(dtype)
        want = reference_apply(m, np.asarray(r, dtype=np.float64))
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
        assert_close(got, reference_apply(m, r))


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
        assert info["matvec_threads"] == team.size()


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
    where[m.iperm_dof[m.symbolic.plan_perm]] = np.arange(n)
    return sp.csr_matrix(
        (low.data[keep], (where[low.row[keep]], where[low.col[keep]])), shape=(n, n)
    )


PLAN_FAMILIES = {
    "sbbic0": lambda p: sb_bic0(p.a, p.groups),
    "bic0": lambda p: bic(p.a, fill_level=0),
    "bic1": lambda p: bic(p.a, fill_level=1),
    "bic2": lambda p: bic(p.a, fill_level=2),
    "ic0-scalar": lambda p: scalar_ic0(p.a),
    "sbbic0-shifted": lambda p: sb_bic0(p.a, p.groups).refactor(shift=0.05),
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
        ref = bucketed(m)
        want = ref(r)
        want_block = np.column_stack([ref(c) for c in block.T])
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
        for i in np.concatenate(m.schedule):
            k = m.sizes[i]
            block = m.L.block(m.symbolic.diag_pos[i])  # the factorized diagonal block
            assert_close(dinv[at : at + k, at : at + k].toarray(), np.linalg.inv(block))
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
        assert_close(m.apply(r), reference_apply(m, r))
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

        def structure():
            return plan_structure(
                sym.pattern, sym.schedule, sym.group_of, sym.perm_dof, sym._structural_mask()
            )

        structure()  # the real schedule passes
        sym.schedule = [np.sort(np.concatenate(sym.schedule[:2])), *sym.schedule[2:]]
        for g, members in enumerate(sym.schedule):
            sym.group_of[members] = g
        with pytest.raises(AssertionError, match="column inside its own group"):
            structure()


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

    @pytest.mark.parametrize("name", ["csr_matvec", "csr_matvecs"])
    def test_kernels_release_the_gil(self, name):
        """What the split product rests on.  With the switch interval
        far beyond the test's length, the main thread can run while the
        second thread is inside the kernel only if the kernel released
        the GIL; otherwise it runs once that thread has left it."""
        a = csr_with_nnz(2000, 2000, 300_000, seed=60)
        call = one_call(a, np.ones(2000) if name == "csr_matvec" else np.ones((2000, 4)))
        inside, seen = [False], []

        def second():
            inside[0] = True
            for _ in range(50):
                call()
            inside[0] = False

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1000.0)
        try:
            thread = threading.Thread(target=second)
            thread.start()  # returns once the GIL is free: inside the kernel
            seen.append(inside[0])
            thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert seen == [True]


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
            want = reference_apply(m, r)
            assert_close(m.apply(np.repeat(r, 2)[::2]), want)
            r32 = r.astype(np.float32)
            assert_close(m.apply(r32), reference_apply(m, r32.astype(np.float64)))
            alias = r.copy()
            assert m.apply(alias, out=alias) is alias
            assert_close(alias, want)
            column = r[:, None].copy()
            assert m.apply_block(column).shape == (30, 1)
            assert_close(m.apply_block(column)[:, 0], want)
            assert_close(m.apply_block(np.asfortranarray(np.column_stack([r, 2 * r])))[:, 1],
                         2 * want)


# ----------------------------------------------------------------------
# the split product
# ----------------------------------------------------------------------


def csr_with_nnz(m, n, nnz, seed):
    """An ``m x n`` CSR with exactly *nnz* entries; every fifth row empty."""
    rng = np.random.default_rng(seed)
    rows = np.flatnonzero(np.arange(m) % 5)
    flat = rng.choice(rows.size * n, nnz, replace=False)
    a = sp.csr_matrix(
        (rng.standard_normal(nnz), (rows[flat // n], flat % n)), shape=(m, n)
    )
    assert a.nnz == nnz
    return a


def one_call(a, x):
    """A closure computing ``A x`` (vector or row-major panel) in one
    direct kernel call: the product the split must equal bit for bit."""
    m, n = a.shape

    def call():
        if x.ndim == 1:
            y = np.zeros(m)
            _sparsetools.csr_matvec(m, n, a.indptr, a.indices, a.data, x, y)
        else:
            y = np.zeros((m, x.shape[1]))
            _sparsetools.csr_matvecs(m, n, x.shape[1], a.indptr, a.indices, a.data, x, y)
        return y

    return call


def product(a, x):
    return kernels.csr_matvec(a, x) if x.ndim == 1 else kernels.csr_matvecs(a, x)


FLOOR = 100_000
"""The team floor the product tests run at: small enough for a few
hundred rows, the same for every split."""


@pytest.fixture
def helper(monkeypatch):
    """Teams on: the floor at :data:`FLOOR`, and where one CPU is
    visible both processes on it (the split is right on one core too)."""
    monkeypatch.setattr(team, "TEAM_NNZ", FLOOR)
    cpus = team._cpus()
    if len(cpus) < 2:
        monkeypatch.setattr(team, "_cpus", lambda: cpus * 2)
    if team.size() < 2:
        pytest.skip("no solve team on this platform (x86 only)")
    return team


def serving(t):
    """*t* once its partner serves (jobs before that run alone)."""
    end = time.monotonic() + 30
    while not t.ready():
        assert time.monotonic() < end, "the partner never started serving"
        time.sleep(0.001)
    return t


def _product_in_child(i, state):
    return kernels.csr_matvec(state.a, state.x), kernels.describe()["matvec_threads"]


def _teams_alive() -> list:
    import multiprocessing as mp

    return [p for p in mp.active_children() if p.name.startswith("repro-team")]


class TestSplitProduct:
    """The team's product: rows ``[k:]`` on the partner (the helper),
    rows ``[:k]`` on the caller, bit-identical to one call."""

    @pytest.mark.parametrize("shape", [(500, 500), (600, 450), (450, 600)])
    @pytest.mark.parametrize("below", [1, 0], ids=["below", "at"])
    @pytest.mark.parametrize("cols", [None, 1, 8])
    def test_equals_the_one_call_product(self, helper, shape, below, cols):
        """Square and non-square, every fifth row empty, one nonzero
        below the floor and at it, a vector and 1- and 8-column panels."""
        a = csr_with_nnz(*shape, FLOOR - below, seed=shape[0] + below)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(shape[1] if cols is None else (shape[1], cols))
        with team.team_for(a, None, cols or 0) as t:
            assert (t is None) == bool(below)
            if t is None:
                got = product(a, x)
            else:
                p = serving(t).direction(cols or 0)
                p[...] = x
                got = t.product(p)
                assert t.barriers == 1
        assert np.array_equal(got, one_call(a, x)())

    def test_a_product_while_the_helper_is_busy_runs_in_one_call(self, helper):
        """While one solve holds the team, another forms none: its
        products and its solve run in this process."""
        a = csr_with_nnz(500, 500, FLOOR, seed=61)
        x = np.arange(500.0)
        with team.team_for(a) as held:
            assert held is not None and team.size() == 1
            with team.team_for(a) as second:
                assert second is None
            assert np.array_equal(kernels.csr_matvec(a, x), one_call(a, x)())
            spd = spd_csr(700, 65, density=0.3)
            assert spd.nnz >= FLOOR
            with obs.observe() as tracer:
                cg_solve(spd, np.ones(700), eps=1e-8)
            assert tracer.find("cg_solve")[0].attrs["team"] == 1
        assert team.size() == len(team._cpus()[:2])

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_a_kernel_error_is_raised_in_the_caller_and_the_helper_freed(self, helper, where):
        """The partner killed mid-solve: the caller finishes alone, to
        the bit, and records the loss.  The caller raising mid-solve:
        the error is raised, and no partner outlives the solve."""
        p = block_problem(0.8)
        m = sb_bic0(p.a, p.groups)
        want = cg_solve(p.a, p.b, m, eps=1e-8)

        class Failing:
            name, setup_seconds, calls = "failing", 0.0, 0

            def apply(self, r, out=None):
                self.calls += 1
                if self.calls == 20:
                    live = serving(team._active)
                    if where == "caller":
                        raise ZeroDivisionError("raised in the caller")
                    os.kill(live._proc.pid, signal.SIGKILL)
                return m.apply(r, out=out)

        failing = Failing()
        failing.plan = m.plan
        if where == "caller":
            with pytest.raises(ZeroDivisionError, match="raised in the caller"):
                cg_solve(p.a, p.b, failing, eps=1e-8)
        else:
            with obs.observe() as tracer:
                got = cg_solve(p.a, p.b, failing, eps=1e-8)
            attrs = tracer.find("cg_solve")[0].attrs
            assert attrs["team"] == 2 and attrs["team_lost"] == "died"
            assert _digest(got.x, got.history) == _digest(want.x, want.history)
        assert _teams_alive() == [] and team._active is None
        with team.team_for(p.a) as again:
            assert again is not None

    def test_two_threads_issuing_products_at_once_get_exact_answers(self, helper):
        """Two threads solving at once: at most one holds the team, and
        both get the one-process answer."""
        problems = [block_problem(0.8), block_problem(0.8, 1e8)]
        pre = [sb_bic0(p.a, p.groups) for p in problems]
        with pytest.MonkeyPatch.context() as mp_:
            mp_.setattr(team, "TEAM_NNZ", np.iinfo(np.int64).max)
            want = [cg_solve(p.a, p.b, m, eps=1e-8).x for p, m in zip(problems, pre)]
        barrier, exact, live, most = threading.Barrier(2), [[], []], [0], [0]
        real_init = team.Team.__init__

        def counted_init(self, *args):
            real_init(self, *args)
            live[0] += 1
            most[0] = max(most[0], live[0])

        real_close = team.Team.close

        def counted_close(self, *args, **kwargs):
            live[0] -= 1
            real_close(self, *args, **kwargs)

        def caller(k):
            barrier.wait()
            for _ in range(3):
                got = cg_solve(problems[k].a, problems[k].b, pre[k], eps=1e-8).x
                exact[k].append(np.array_equal(got, want[k]))

        with pytest.MonkeyPatch.context() as mp_:
            mp_.setattr(team.Team, "__init__", counted_init)
            mp_.setattr(team.Team, "close", counted_close)
            threads = [threading.Thread(target=caller, args=(k,)) for k in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert exact == [[True] * 3, [True] * 3]
        assert most[0] == 1

    def test_a_forked_child_has_no_helper(self, helper):
        """A child forked while a team lives (a rank or pool worker)
        forms none: its product is right, in one call, and it returns."""
        a = csr_with_nnz(500, 500, FLOOR, seed=64)
        x = np.arange(500.0)

        def setup(i, state):
            state.a, state.x = a, x

        with team.team_for(a) as t:
            assert t is not None
            workers = Workers(1, setup, name="repro-kernel-test-")
            try:
                assert workers.replace([0])[0][0] == "done"
                workers.send(0, _product_in_child)
                assert workers.conn(0).poll(60), "the forked child did not answer"
                kind, (y, size), _ = workers.receive(0)
            finally:
                workers.close()
        assert kind == "done" and size == 1
        assert np.array_equal(y, one_call(a, x)())


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class TestSolvesWithAndWithoutTheHelper:
    """Block 1.0 (242 905 nonzeros), SB-BIC(0): the same ``x`` and
    ``history`` to the bit with the team (the partner is the helper) and
    with it forced off, and the solve span says which ran."""

    @pytest.fixture(scope="class")
    def problem(self):
        p = block_problem(1.0)
        return p, sb_bic0(p.a, p.groups)

    def _solve(self, problem, blocked):
        p, m = problem
        with obs.observe() as tracer:
            if blocked:
                rhs = np.column_stack([p.b, np.roll(p.b, 3), -0.5 * p.b])
                res = block_cg_solve(p.a, rhs, m, eps=1e-8)
            else:
                res = cg_solve(p.a, p.b, m, eps=1e-8)
        name = "block_cg_solve" if blocked else "cg_solve"
        (span,) = tracer.find(name)
        return _digest(res.x, res.history), span.attrs

    @pytest.mark.parametrize("blocked", [False, True], ids=["cg", "block_cg"])
    def test_same_sha256_with_the_helper_on_and_off(self, problem, helper, monkeypatch, blocked):
        on, attrs = self._solve(problem, blocked)
        assert attrs["team"] == 2 and attrs["team_barriers"] > 0 and attrs["team_lost"] == ""
        monkeypatch.setattr(team, "TEAM_NNZ", np.iinfo(np.int64).max)
        off, attrs = self._solve(problem, blocked)
        assert off == on and attrs["team"] == 1
