"""Resilience layer: failure taxonomy, fallback chain, fault injection."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem.assembly import assemble_stiffness
from repro.fem.bc import all_dofs, apply_dirichlet, component_dofs, surface_load
from repro.fem.generators import simple_block_model
from repro.fem.nonlinear import solve_nonlinear_contact
from repro.parallel import DistributedSystem, parallel_cg, partition_nodes_rcb
from repro.precond import DiagonalScaling, bic, sb_bic0
from repro.precond.base import Preconditioner
from repro.resilience import (
    FailureReason,
    FallbackStage,
    ResilientSolver,
    SolveReport,
    default_ladder,
)
from repro.solvers.cg import cg_solve

from .conftest import random_spd_csr


# ----------------------------------------------------------------------
# failure taxonomy on cg_solve
# ----------------------------------------------------------------------


class TestFailureTaxonomy:
    def test_converged_solve_reports_converged_reason(self, block_problem_small):
        p = block_problem_small
        res = cg_solve(p.a, p.b, bic(p.a, fill_level=0))
        assert res.converged
        assert res.reason is FailureReason.CONVERGED
        assert not res.reason.is_failure
        assert "None" not in repr(res)

    def test_breakdown_reason_and_repr(self):
        a = sp.diags([1.0, -1.0, 2.0]).tocsr()
        report = SolveReport()
        res = cg_solve(a, np.ones(3), max_iter=50, report=report)
        assert res.reason is FailureReason.BREAKDOWN_INDEFINITE
        assert "BREAKDOWN_INDEFINITE" in repr(res)
        assert report.counts_by_reason() == {FailureReason.BREAKDOWN_INDEFINITE: 1}

    # MAX_ITER / STAGNATION / TIME_BUDGET (and NaN, indefinite p.q) are
    # exercised from both CG entry points by tests/test_cg.py::TestOneBody


class TestFailFastValidation:
    def test_nan_rhs_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            cg_solve(sp.eye(3).tocsr(), np.array([np.nan, 1.0, 1.0]))

    def test_inf_x0_rejected(self):
        with pytest.raises(ValueError, match="x0"):
            cg_solve(sp.eye(3).tocsr(), np.ones(3), x0=np.array([0.0, np.inf, 0.0]))

    def test_parallel_cg_rejects_nan_rhs(self, block_problem_small):
        p = block_problem_small
        part = partition_nodes_rcb(p.mesh.coords, 3)
        b_bad = p.b.copy()
        b_bad[0] = np.nan
        system = DistributedSystem.from_global(
            p.a, b_bad, part, lambda sub, nodes: bic(sub, fill_level=0)
        )
        with pytest.raises(ValueError, match="non-finite"):
            parallel_cg(system)


# ----------------------------------------------------------------------
# fallback chain
# ----------------------------------------------------------------------


class _PoisonAfter(Preconditioner):
    """Behaves like an inner preconditioner for *healthy_applies* calls,
    then returns NaN — a mid-solve breakdown on demand."""

    name = "poison"

    def __init__(self, inner: Preconditioner, healthy_applies: int) -> None:
        self.inner = inner
        self.left = healthy_applies

    def apply(self, r, out=None):
        if self.left <= 0:
            return np.full_like(np.asarray(r, dtype=float), np.nan)
        self.left -= 1
        return self.inner.apply(r)


def _singular_first_group(p):
    """*p*'s operator with the rows and columns of its first contact
    group zeroed: that selective diagonal block is exactly singular at
    factorization time, so SB-BIC(0) on it nudges pivots."""
    bad = p.a.tolil()
    g_dofs = (p.groups[0][:, None] * 3 + np.arange(3)).reshape(-1)
    bad[g_dofs, :] = 0.0
    bad[:, g_dofs] = 0.0
    return bad.tocsr()


class TestResilientSolver:
    def test_healthy_chain_identical_to_direct_solve(self):
        """Property: on a healthy system the chain never escalates and the
        iterates are identical to the direct solve."""
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            a = random_spd_csr(30, 0.2, rng)
            b = rng.normal(size=30)
            ladder = [
                FallbackStage("BIC(0)", lambda a=a: bic(a, fill_level=0)),
                FallbackStage("Diagonal", lambda a=a: DiagonalScaling(a)),
            ]
            res = ResilientSolver(a, ladder).solve(b)
            direct = cg_solve(a, b, bic(a, fill_level=0))
            assert res.converged
            assert res.iterations == direct.iterations
            assert np.array_equal(res.x, direct.x)
            assert not res.report.detections()  # no failure, no escalation

    def test_setup_exception_escalates(self, block_problem_small):
        p = block_problem_small

        def explode():
            raise np.linalg.LinAlgError("synthetic setup failure")

        ladder = [
            FallbackStage("broken", explode),
            FallbackStage("BIC(0)", lambda: bic(p.a, fill_level=0)),
        ]
        solver = ResilientSolver(p.a, ladder)
        res = solver.solve(p.b)
        assert res.converged
        assert res.relative_residual <= 1e-8
        reasons = [e.reason for e in solver.report.detections()]
        assert FailureReason.SETUP_PIVOT_FAILURE in reasons
        assert solver.report.recoveries()

    def test_singularized_selective_block_recovers(self, block_problem_small):
        """Acceptance: a deliberately singularized selective block makes
        SB-BIC(0) setup fail (nudged pivots); the chain falls back and
        still converges to 1e-8, with the full trail in the report."""
        p = block_problem_small
        bad = _singular_first_group(p)
        ladder = [
            FallbackStage("SB-BIC(0)", lambda: sb_bic0(bad, p.groups)),
            FallbackStage("BIC(0)", lambda: bic(p.a, fill_level=0)),
            FallbackStage("Diagonal", lambda: DiagonalScaling(p.a)),
        ]
        solver = ResilientSolver(p.a, ladder)
        res = solver.solve(p.b)
        assert res.converged
        assert res.relative_residual <= 1e-8
        trail = solver.report
        det = [e for e in trail.detections() if e.reason is FailureReason.SETUP_PIVOT_FAILURE]
        assert det and det[0].stage == "SB-BIC(0)"
        assert any(e.kind == "escalate" for e in trail.events)
        assert trail.recoveries()
        assert res.report is trail

    def test_nudged_last_rung_is_solved_with(self, block_problem_small):
        """A nudged factor is escalated past only when a rung is left:
        the last rung is solved with, nudges and all."""
        p = block_problem_small
        bad = _singular_first_group(p)
        built = []

        def nudged_sbbic():
            built.append(sb_bic0(bad, p.groups))
            return built[-1]

        solver = ResilientSolver(p.a, [FallbackStage("SB-BIC(0)", nudged_sbbic)])
        res = solver.solve(p.b)
        assert built and built[0].breakdown_count > 0
        assert res.converged and res.iterations == 73
        assert [(e.kind, e.stage, e.detail) for e in solver.report.events] == [
            ("info", "SB-BIC(0)", "attempting solve")
        ]
        assert not solver.report.detections()

    def test_mid_solve_breakdown_resumes_from_best_iterate(self, block_problem_small):
        p = block_problem_small
        healthy = bic(p.a, fill_level=0)
        ladder = [
            FallbackStage("flaky", lambda: _PoisonAfter(bic(p.a, fill_level=0), 8)),
            FallbackStage("BIC(0)", lambda: healthy),
        ]
        solver = ResilientSolver(p.a, ladder)
        res = solver.solve(p.b)
        assert res.converged
        assert res.relative_residual <= 1e-8
        reasons = [e.reason for e in solver.report.detections()]
        assert FailureReason.NAN_DETECTED in reasons
        # the second stage warm-restarted from the flaky stage's progress
        infos = [e for e in solver.report.events if e.kind == "info"]
        assert any("warm restart" in e.detail for e in infos)
        # warm restart keeps progress: no more iterations than a cold solve
        cold = cg_solve(p.a, p.b, bic(p.a, fill_level=0))
        second_stage_iters = res.iterations
        assert second_stage_iters <= cold.iterations

    def test_mutating_failed_rung_result_does_not_corrupt_warm_restart(
        self, block_problem_small, monkeypatch
    ):
        """Regression: the warm-restart iterate used to alias the failed
        rung's ``res.x`` — the same array handed out on the returned
        CGResult — so any caller mutating a failed rung's result (a
        history recorder, a diagnostics dump) silently corrupted the
        next rung's ``x0``.  It must be copied on capture."""
        import repro.resilience.resilient as rmod

        p = block_problem_small
        real_cg = rmod.cg_solve
        state = {"prev": None, "x0_seen": []}

        def hostile_cg(a, b, m=None, **kw):
            # a consumer of the previous rung's result clobbers it
            # between rungs — exactly what a caller holding the returned
            # CGResult may legally do
            if state["prev"] is not None:
                state["prev"].x[:] = 999.0
            x0 = kw.get("x0")
            state["x0_seen"].append(None if x0 is None else np.asarray(x0).copy())
            res = real_cg(a, b, m, **kw)
            state["prev"] = res
            return res

        monkeypatch.setattr(rmod, "cg_solve", hostile_cg)
        ladder = [
            FallbackStage("flaky", lambda: _PoisonAfter(bic(p.a, fill_level=0), 8)),
            FallbackStage("BIC(0)", lambda: bic(p.a, fill_level=0)),
        ]
        res = ResilientSolver(p.a, ladder).solve(p.b)
        assert res.converged
        assert len(state["x0_seen"]) == 2
        x0_second = state["x0_seen"][1]
        assert x0_second is not None  # warm restart did happen
        assert not np.any(x0_second == 999.0), (
            "second rung's x0 aliases the failed rung's result array — "
            "the warm-restart iterate must be copied on capture"
        )

    def test_on_stage_result_callback_owns_the_result(self, block_problem_small):
        """The per-rung outcome hook hands the callback the CGResult to
        keep; mutating it (even zeroing ``x``) must not disturb the
        chain's warm restart or the final answer."""
        p = block_problem_small
        seen = []

        def recorder(stage, res):
            seen.append((stage.name, res.converged, res.iterations))
            if not res.converged:
                res.x[:] = np.nan  # the callback owns this object

        ladder = [
            FallbackStage("flaky", lambda: _PoisonAfter(bic(p.a, fill_level=0), 8)),
            FallbackStage("BIC(0)", lambda: bic(p.a, fill_level=0)),
        ]
        res = ResilientSolver(p.a, ladder, on_stage_result=recorder).solve(p.b)
        assert res.converged
        assert np.isfinite(res.x).all()
        assert [s for s, _, _ in seen] == ["flaky", "BIC(0)"]
        assert [c for _, c, _ in seen] == [False, True]

    def test_all_stages_failing_reports_reason(self):
        def explode():
            raise np.linalg.LinAlgError("nope")

        a = sp.eye(6).tocsr()
        solver = ResilientSolver(a, [FallbackStage("s0", explode)])
        res = solver.solve(np.ones(6))
        assert not res.converged
        assert res.reason is FailureReason.SETUP_PIVOT_FAILURE

    @pytest.mark.parametrize("case,rungs", [
        ("contact", [("SB-BIC(0)", "sbbic0"), ("BIC(0)", "bic0"),
                     ("BIC(0)+shift0.01", "bic0"), ("BIC(0)+shift0.1", "bic0"),
                     ("Diagonal", "diag")]),
        ("group-free", [("BIC(0)", "bic0"), ("BIC(0)+shift0.01", "bic0"),
                        ("BIC(0)+shift0.1", "bic0"), ("Diagonal", "diag")]),
        ("n-not-multiple-of-3", [("IC(0) scalar", "ic0"), ("IC(0)+shift0.01", "ic0"),
                                 ("IC(0)+shift0.1", "ic0"), ("Diagonal", "diag")]),
    ], ids=["contact", "group-free", "n-not-multiple-of-3"])
    def test_default_ladder_shape(self, block_problem_small, case, rungs):
        """The paper's robustness order, per kind of problem: every rung's
        label, in order, and the family it belongs to."""
        p = block_problem_small
        a, groups, b = {
            "contact": (p.a, p.groups, p.b),
            "group-free": (p.a, None, p.b),
            "n-not-multiple-of-3": (random_spd_csr(10, 0.3, np.random.default_rng(3)),
                       None, np.ones(10)),
        }[case]
        ladder = default_ladder(a, groups)
        assert [(s.name, s.family) for s in ladder] == rungs
        # every rung builds and the strongest rung solves the system
        res = ResilientSolver(a, ladder).solve(b)
        assert res.converged and res.relative_residual <= 1e-8

    def test_default_ladder_scalar_fallback_for_nonblock_matrix(self):
        rng = np.random.default_rng(3)
        a = random_spd_csr(10, 0.3, rng)  # 10 not divisible by 3
        names = [s.name for s in default_ladder(a)]
        assert any("IC(0)" in n for n in names)
        res = ResilientSolver(a, default_ladder(a)).solve(rng.normal(size=10))
        assert res.converged

    def test_shared_bic_cache_refactors_back_across_repeated_solves(
        self, block_problem_small
    ):
        """The default ladder's BIC-family rungs share one cached
        factorization, refactored in place per rung.  After a solve that
        escalated to a shifted rung, a *second* solve with the same
        ladder list must refactor the cache back to shift 0 for the
        plain rung — not reuse the stale shifted pivots."""
        p = block_problem_small
        ladder = default_ladder(p.a)  # no groups: plain BIC(0) first
        plain = next(s for s in ladder if s.name == "BIC(0)")
        shifted = next(s for s in ladder if "shift" in s.name)

        # first solve escalates through every rung (iteration cap no rung
        # can meet), leaving the shared cache at the largest shift
        first = ResilientSolver(p.a, ladder, max_iter=2).solve(p.b)
        assert not first.converged

        m_shifted = shifted.build()
        assert m_shifted._shift > 0.0  # cache really is stale-shifted
        m_plain = plain.build()
        assert m_plain is m_shifted  # one shared factorization...
        assert m_plain._shift == 0.0  # ...refactored back, not reused stale

        # second solve, same ladder list: the plain rung must behave
        # exactly like a fresh unshifted factorization
        second = ResilientSolver(p.a, ladder).solve(p.b)
        fresh = cg_solve(p.a, p.b, bic(p.a, fill_level=0))
        assert second.converged
        assert second.iterations == fresh.iterations
        assert np.array_equal(second.x, fresh.x)

    def test_chain_time_budget(self, block_problem_small):
        p = block_problem_small
        solver = ResilientSolver(p.a, default_ladder(p.a, p.groups), time_budget=0.0)
        res = solver.solve(p.b)
        assert not res.converged
        assert res.reason is FailureReason.TIME_BUDGET


# ----------------------------------------------------------------------
# communication fault injection + detection
# ----------------------------------------------------------------------


def _faulty_system(p, exchange=None, kind="nan", rank=1, ndomains=3):
    """A lockstep system whose *rank* receives a corrupted ghost value in
    halo exchange *exchange* (no fault when None)."""
    part = partition_nodes_rcb(p.mesh.coords, ndomains)
    system = DistributedSystem.from_global(
        p.a, p.b, part, lambda sub, nodes: bic(sub, fill_level=0)
    )
    if exchange is not None:
        system.comm.inject_worker_fault(rank, exchange, corrupt=kind)
    return system


class TestCommFaultInjection:
    @pytest.mark.parametrize("kind", ["nan", "bitflip"])
    def test_fault_detected_within_one_iteration(self, block_problem_small, kind):
        p = block_problem_small
        report = SolveReport()
        system = _faulty_system(p, exchange=2, kind=kind)
        res = parallel_cg(system, report=report)
        assert not res.converged
        assert res.reason is FailureReason.COMM_FAULT
        # exchange k happens during iteration k; detection is immediate,
        # in the same iteration the fault landed
        det = [e for e in report.detections() if e.reason is FailureReason.COMM_FAULT]
        assert len(det) == 1
        assert det[0].iteration == 2
        # the returned iterate is the last good one, never poisoned
        assert np.isfinite(res.x).all()

    def test_nan_payload_never_silently_wrong(self, block_problem_small):
        """Acceptance: an injected NaN halo fault is reported as COMM_FAULT,
        not returned as a converged-looking garbage answer."""
        p = block_problem_small
        system = _faulty_system(p, exchange=0)
        res = parallel_cg(system)
        assert not res.converged
        assert res.reason is FailureReason.COMM_FAULT
        assert res.iterations == 0  # caught on the very first exchange

    def test_no_faults_matches_clean_run(self, block_problem_small):
        p = block_problem_small
        clean = parallel_cg(
            DistributedSystem.from_global(
                p.a,
                p.b,
                partition_nodes_rcb(p.mesh.coords, 3),
                lambda sub, nodes: bic(sub, fill_level=0),
            )
        )
        # a plan for an exchange the solve never reaches changes nothing
        faulty_but_idle = parallel_cg(_faulty_system(p, exchange=10**9))
        assert faulty_but_idle.converged
        assert np.array_equal(clean.x, faulty_but_idle.x)
        assert faulty_but_idle.iterations == clean.iterations



# ----------------------------------------------------------------------
# nonlinear driver: penalty back-off + ladder wiring
# ----------------------------------------------------------------------


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


class _NaNPrecond(Preconditioner):
    name = "nan"

    def apply(self, r, out=None):
        return np.full_like(np.asarray(r, dtype=float), np.nan)


class TestNonlinearResilience:
    def test_healthy_solve_never_backs_off(self, alm_system):
        mesh, a_free, b = alm_system
        res = solve_nonlinear_contact(
            a_free, b, mesh.contact_groups, mesh.n_nodes,
            penalty=1e4, precond_factory=lambda a: bic(a, fill_level=0),
        )
        assert res.converged
        assert res.penalty_backoffs == 0
        assert res.penalty == 1e4
        assert res.report is not None and not res.report.detections()

    def test_inner_failure_triggers_penalty_backoff(self, alm_system):
        """A poisoned inner solve must not propagate a bogus displacement
        field: the driver backs the penalty off, rebuilds, retries."""
        mesh, a_free, b = alm_system
        calls = {"n": 0}

        def flaky_factory(a):
            calls["n"] += 1
            if calls["n"] == 1:
                return _NaNPrecond()
            return bic(a, fill_level=0)

        res = solve_nonlinear_contact(
            a_free, b, mesh.contact_groups, mesh.n_nodes,
            penalty=1e4, precond_factory=flaky_factory,
        )
        assert res.converged
        assert res.penalty_backoffs == 1
        assert res.penalty == pytest.approx(1e3)
        assert np.isfinite(res.u).all()
        kinds = [e.kind for e in res.report.events]
        assert "retry" in kinds and "recover" in kinds
        reasons = [e.reason for e in res.report.detections()]
        assert FailureReason.NAN_DETECTED in reasons

    def test_backoff_budget_exhaustion_flags_failure(self, alm_system):
        mesh, a_free, b = alm_system
        res = solve_nonlinear_contact(
            a_free, b, mesh.contact_groups, mesh.n_nodes,
            penalty=1e4, precond_factory=lambda a: _NaNPrecond(),
            max_penalty_backoffs=1,
        )
        assert not res.converged
        assert res.penalty_backoffs == 1
        # the garbage iterate was never folded into u
        assert np.isfinite(res.u).all()

    def test_ladder_factory_wiring(self, alm_system):
        mesh, a_free, b = alm_system
        res = solve_nonlinear_contact(
            a_free, b, mesh.contact_groups, mesh.n_nodes,
            penalty=1e4,
            precond_factory=lambda a: bic(a, fill_level=0),
            ladder_factory=lambda a: default_ladder(a, mesh.contact_groups),
        )
        ref = solve_nonlinear_contact(
            a_free, b, mesh.contact_groups, mesh.n_nodes,
            penalty=1e4, precond_factory=lambda a: bic(a, fill_level=0),
        )
        assert res.converged
        assert np.allclose(res.u, ref.u, atol=1e-8)


# ----------------------------------------------------------------------
# ladder memory hygiene: superseded rungs must be released
# ----------------------------------------------------------------------


class TestLadderMemoryRelease:
    def test_superseded_rung_factorization_released(self, block_problem_small):
        """A failed rung's factorization must not stay alive while later
        rungs (and, across ALM retries, later solves) run — the largest
        factorization leaking per retry is unbounded memory growth."""
        import gc
        import weakref

        p = block_problem_small
        refs = []

        def tracked_sbbic():
            m = sb_bic0(p.a, p.groups)
            stats = m.factorization_stats()
            assert stats["numeric_setups"] == 1  # fresh build each retry
            refs.append(weakref.ref(m))
            return m

        ladder = [
            FallbackStage("SB-BIC(0)", tracked_sbbic),
            FallbackStage("Diagonal", lambda: DiagonalScaling(p.a)),
        ]
        # simulate ALM retries: several solves, each forced to escalate
        # past the SB-BIC(0) rung by an iteration cap it cannot meet
        for _ in range(3):
            solver = ResilientSolver(p.a, ladder, max_iter=2)
            res = solver.solve(p.b)
            assert not res.converged  # the cap guarantees escalation ran
        gc.collect()
        assert len(refs) == 3
        alive = [r for r in refs if r() is not None]
        assert alive == [], (
            f"{len(alive)} superseded rung factorization(s) still alive "
            "after escalation — ResilientSolver must drop its reference "
            "before building the next rung"
        )
