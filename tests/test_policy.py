"""The solver policy layer: probes, cost ranking, outcome tally, decisions.

Five layers of coverage:

- probes: fingerprint stability and the penalty-recovery trick
  (``diag_max / diag_median`` sees the MPC penalty without being told);
- cost model: applicability, ranking order, set-up and iterations
  priced in one unit, and the Table 2-shaped priors (selective blocking
  out-ranks plain BIC *and* Diagonal at high penalty, the cost ranking
  degrades gracefully to diag on group-free problems);
- the paper's ranking on real contact problems, in counts only: the
  policy leads with SB-BIC(0), the leader's census cost with *measured*
  iterations is within 1.25x of the cheapest family's, and the ranking
  does not hang on the SB-BIC(0) iteration prior;
- outcome tally: runs / failures / seconds / iterations per fingerprint
  and family;
- policy: both modes end to end through ``ladder()`` +
  :class:`~repro.resilience.resilient.ResilientSolver`, the Diagonal
  backstop invariant, serve-session ``precond="auto"`` resolution at the
  request's tolerance, the ``policy_table`` exporter, and the CLI entry
  points.
"""

import dataclasses

import numpy as np
import pytest

from repro import cg_solve, obs
from repro.experiments.workloads import (
    block_problem,
    homogeneous_box_problem,
    swjapan_problem,
)
from repro.policy import ladder as ladder_module
from repro.policy import (
    FAMILIES,
    OutcomeStats,
    PolicyDecision,
    PolicyHistory,
    ProblemProbe,
    SolverPolicy,
    applicable_families,
    candidate_costs,
    family_of_stage,
    probe_problem,
)
from repro.precond import FAMILY_TABLE
from repro.resilience.resilient import ResilientSolver
from repro.serve import SolveRequest, SolverSession


@pytest.fixture(scope="module")
def contact():
    """One penalized contact problem shared across the module."""
    return block_problem(0.4, 1.0e6)


@pytest.fixture(scope="module")
def box():
    """A group-free problem — the 'default ladder is wrong here' case."""
    return homogeneous_box_problem(6)


def make_probe(**over):
    """A hand-built probe for cost-model tests with controlled knobs."""
    base = dict(
        ndof=3000, nnz=200_000, block_ok=True, n_groups=4, max_group=40,
        group_dofs=480, diag_median=1.0, diag_max=1.0e6, penalty_ratio=1.0e6,
        kappa_scaled=1.0e8, probe_seconds=0.0,
    )
    base.update(over)
    return ProblemProbe(**base)


class TestProbe:
    def test_fingerprint_is_stable_across_reprobes(self, contact):
        p1 = probe_problem(contact.a, contact.groups)
        p2 = probe_problem(contact.a, contact.groups)
        assert p1.fingerprint() == p2.fingerprint()
        assert p1.fingerprint().startswith("v1:")

    def test_probe_recovers_penalty_from_the_diagonal(self, contact, box):
        p = probe_problem(contact.a, contact.groups)
        assert p.penalty_ratio > 1.0e3  # lambda = 1e6 rows dominate diag
        q = probe_problem(box.a, box.groups)
        assert q.penalty_ratio < 1.0e3
        assert q.n_groups == 0

    def test_probe_census_matches_problem(self, contact):
        p = probe_problem(contact.a, contact.groups)
        assert p.ndof == contact.ndof
        assert p.block_ok
        assert p.n_groups == len(contact.groups)
        assert p.kappa_scaled > 1.0
        assert np.isfinite(p.kappa_scaled)

    def test_penalty_shifts_fingerprint_class(self):
        lo = make_probe(penalty_ratio=10.0)
        hi = make_probe(penalty_ratio=1.0e8)
        assert lo.fingerprint() != hi.fingerprint()


class TestCostModel:
    def test_applicable_families(self):
        assert applicable_families(4, True) == ("sbbic0", "bic0", "diag")
        assert applicable_families(0, True) == ("bic0", "diag")
        assert applicable_families(4, False) == ("ic0", "diag")
        # what the cost model prices is exactly what applies
        for over in ({}, {"n_groups": 0}, {"block_ok": False}):
            probe = make_probe(**over)
            assert {c.family for c in candidate_costs(probe)} == set(
                applicable_families(probe.n_groups, probe.block_ok))

    def test_costs_sorted_cheapest_first(self):
        costs = candidate_costs(make_probe())
        totals = [c.predicted_seconds for c in costs]
        assert totals == sorted(totals)
        assert {c.family for c in costs} <= set(FAMILIES)

    def test_selective_blocking_wins_at_high_penalty(self):
        """Table 2's shape: at lambda ~ 1e6+ the penalty-absorbing family
        leads — ahead of plain BIC(0), whose kappa_eff keeps the penalty,
        and ahead of Diagonal, whose free set-up buys thousands of
        iterations."""
        for penalty_ratio, kappa in ((1.0e6, 4.0e4), (1.0e8, 1.0e10)):
            probe = make_probe(penalty_ratio=penalty_ratio, kappa_scaled=kappa)
            ranked = [c.family for c in candidate_costs(probe)]
            assert ranked[0] == "sbbic0", ranked

    def test_setup_and_iterations_share_one_unit(self):
        """Set-up is worth tens to hundreds of the family's own
        iterations (this host measures 60-190 for the IC families, ~2 for
        Diagonal) — not the thousands a set-up priced on a slower
        execution unit than the iterations came to."""
        by_family = {
            c.family: c.setup_seconds / c.per_iter_seconds
            for probe in (make_probe(), make_probe(block_ok=False, n_groups=0))
            for c in candidate_costs(probe)
        }
        assert set(by_family) == {"sbbic0", "bic0", "ic0", "diag"}
        for family in ("sbbic0", "bic0", "ic0"):
            assert 30.0 < by_family[family] < 400.0, by_family
        assert by_family["diag"] < 5.0, by_family

    def test_selective_blocking_prior_is_penalty_independent(self):
        """Appendix A: SB-BIC(0)'s spectrum does not see lambda."""
        iters = {
            candidate_costs(
                make_probe(penalty_ratio=pr, kappa_scaled=kappa), families=("sbbic0",)
            )[0].predicted_iterations
            for pr, kappa in ((1.0e4, 2.0e4), (1.0e6, 4.5e4), (1.0e8, 4.6e4))
        }
        assert len(iters) == 1
        assert iters.pop() > 10  # not the clamp floor

    def test_risk_inflates_fragile_families(self):
        probe = make_probe(penalty_ratio=1.0e8, block_ok=False, n_groups=0)
        by_family = {c.family: c for c in candidate_costs(probe)}
        assert by_family["ic0"].risk > 1.0
        assert by_family["diag"].risk == 1.0

    def test_predicted_iterations_track_kappa(self):
        tame = candidate_costs(make_probe(kappa_scaled=1.0e2, penalty_ratio=1.0))
        wild = candidate_costs(make_probe(kappa_scaled=1.0e10, penalty_ratio=1.0))
        tame_d = {c.family: c.predicted_iterations for c in tame}
        wild_d = {c.family: c.predicted_iterations for c in wild}
        for fam in tame_d:
            assert wild_d[fam] >= tame_d[fam]


RANKING_CASES = [
    (model, penalty)
    for model in ("block", "swjapan")
    for penalty in (1.0e4, 1.0e6, 1.0e8)
]
CASE_IDS = [f"{model}-{penalty:g}" for model, penalty in RANKING_CASES]


@pytest.fixture(scope="module")
def ranked_cases():
    """Decision + *measured* iterations per family on serve_mixed's two
    hot structures (block 0.8, swjapan 1.0) — counts only, no clock."""
    make = {"block": (block_problem, 0.8), "swjapan": (swjapan_problem, 1.0)}
    out = {}
    for model, penalty in RANKING_CASES:
        generator, scale = make[model]
        prob = generator(scale, penalty)
        decision = SolverPolicy("cost").decide(prob.a, prob.groups)
        iterations = {}
        for family in decision.order:
            m = FAMILY_TABLE[family].build(prob.a, prob.groups)
            res = cg_solve(prob.a, prob.b, m, record_history=False)
            assert res.converged, (model, penalty, family)
            iterations[family] = res.iterations
        out[model, penalty] = (decision, iterations)
    return out


class TestPaperRanking:
    """The default path agrees with the paper it reproduces (Table 2)."""

    @pytest.mark.parametrize("case", RANKING_CASES, ids=CASE_IDS)
    def test_cost_policy_leads_with_selective_blocking(self, ranked_cases, case):
        decision, _ = ranked_cases[case]
        assert decision.order[0] == "sbbic0", decision.explain()

    @pytest.mark.parametrize("case", RANKING_CASES, ids=CASE_IDS)
    def test_leader_census_cost_near_the_cheapest(self, ranked_cases, case):
        """Set-up passes + real iterations x per-iteration passes."""
        decision, iterations = ranked_cases[case]
        census = {
            c.family: c.setup_seconds + iterations[c.family] * c.per_iter_seconds
            for c in decision.costs
        }
        assert census[decision.order[0]] <= 1.25 * min(census.values()), census

    @pytest.mark.parametrize("case", RANKING_CASES, ids=CASE_IDS)
    def test_ranking_survives_the_measured_sbbic_count(self, ranked_cases, case):
        """Replace the SB-BIC(0) iteration prior by the truth: same leader."""
        decision, iterations = ranked_cases[case]
        reranked = sorted(
            (
                dataclasses.replace(c, predicted_iterations=iterations["sbbic0"])
                if c.family == "sbbic0" else c
                for c in decision.costs
            ),
            key=lambda c: c.predicted_seconds,
        )
        assert reranked[0].family == decision.order[0]
        predicted = decision.cost_of("sbbic0").predicted_iterations
        assert 0.5 <= predicted / iterations["sbbic0"] <= 2.0

    def test_group_free_box_still_leads_with_diagonal(self, box):
        decision = SolverPolicy("cost").decide(box.a, box.groups)
        assert decision.order[0] == "diag", decision.explain()


class TestHistory:
    def test_record_tallies_per_fingerprint_and_family(self):
        h = PolicyHistory()
        h.record("fp", "bic0", seconds=1.0, converged=True, iterations=10)
        h.record("fp", "bic0", seconds=3.0, converged=False, iterations=30)
        h.record("fp", "sbbic0", seconds=0.5, converged=True, iterations=7)
        h.record("fp2", "diag", seconds=0.25, converged=True)
        assert len(h) == 2
        assert h.to_dict() == {"outcomes": {
            "fp": {
                "bic0": {"runs": 2, "failures": 1, "total_seconds": 4.0,
                         "total_iterations": 40},
                "sbbic0": {"runs": 1, "failures": 0, "total_seconds": 0.5,
                           "total_iterations": 7},
            },
            "fp2": {"diag": {"runs": 1, "failures": 0, "total_seconds": 0.25,
                             "total_iterations": 0}},
        }}

    def test_outcome_stats_roundtrip(self):
        st = OutcomeStats(runs=3, failures=1, total_seconds=6.0,
                          total_iterations=90)
        assert OutcomeStats(**st.to_dict()) == st


class TestFamilyOfStage:
    @pytest.mark.parametrize("stage,family", [
        ("SB-BIC(0)", "sbbic0"),
        ("BIC(0)", "bic0"),
        ("BIC(0)+shift0.01", "bic0"),
        ("IC(0) scalar", "ic0"),
        ("IC(0)+shift0.1", "ic0"),
        ("Diagonal", "diag"),
        ("sbbic0", "sbbic0"),  # serve-protocol names pass through
        ("diag", "diag"),
        ("Mystery", None),
    ])
    def test_mapping(self, stage, family):
        assert family_of_stage(stage) == family


class TestSolverPolicy:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown policy mode"):
            SolverPolicy("vibes")

    def test_static_mode_matches_paper_ladder(self, contact):
        policy = SolverPolicy("static")
        decision = policy.decide(contact.a, contact.groups)
        assert decision.probe is None
        assert decision.order == ("sbbic0", "bic0", "diag")
        stages, _ = policy.ladder(contact.a, contact.groups, decision=decision)
        names = [s.name for s in stages]
        assert names[0] == "SB-BIC(0)"
        assert names[-1] == "Diagonal"

    def test_probe_cache_hits_by_key(self, contact):
        policy = SolverPolicy("cost")
        p1 = policy.probe(contact.a, contact.groups, cache_key="k")
        p2 = policy.probe(contact.a, contact.groups, cache_key="k")
        assert p1 is p2
        p3 = policy.probe(contact.a, contact.groups)  # no key: fresh probe
        assert p3 is not p1

    def test_probe_cache_is_bounded_lru(self, contact, monkeypatch):
        monkeypatch.setattr(ladder_module, "PROBE_CACHE_SIZE", 3)
        policy = SolverPolicy("cost")
        probes = {
            key: policy.probe(contact.a, contact.groups, cache_key=key)
            for key in ("a", "b", "c")
        }
        assert policy.probe(contact.a, contact.groups, cache_key="a") is probes["a"]
        policy.probe(contact.a, contact.groups, cache_key="d")  # N+1 keys keep N
        assert list(policy._probe_cache) == ["c", "a", "d"]  # "b" was the oldest
        assert policy.probe(contact.a, contact.groups, cache_key="b") is not probes["b"]

    def test_ladder_always_ends_in_diagonal(self, contact, box):
        """The unbreakable backstop: last rung is Diagonal no matter how
        the order was ranked.  A diag-led ladder may retry Diagonal at
        the end (warm restart makes that retry meaningful), but never
        back to back."""
        policy = SolverPolicy("cost")
        for prob in (contact, box):
            stages, _ = policy.ladder(prob.a, prob.groups)
            names = [s.name for s in stages]
            assert names[-1] == "Diagonal"
            assert all(
                not (a == b == "Diagonal") for a, b in zip(names, names[1:])
            )

    def test_ladder_skips_sbbic_without_groups(self, box):
        policy = SolverPolicy("cost")
        decision = PolicyDecision(
            mode="cost", order=("sbbic0", "bic0", "diag"), probe=None,
        )
        stages, _ = policy.ladder(box.a, box.groups, decision=decision)
        assert all(s.name != "SB-BIC(0)" for s in stages)

    def test_shift_rungs_share_one_factorization(self, contact):
        """The second BIC rung must refactor the first rung's object in
        place (the shared-cache contract of ``default_ladder``)."""
        policy = SolverPolicy("cost")
        decision = PolicyDecision(mode="cost", order=("bic0", "diag"), probe=None)
        stages, _ = policy.ladder(contact.a, contact.groups, decision=decision)
        by_name = {s.name: s for s in stages}
        m_plain = by_name["BIC(0)"].build()
        m_shift = by_name["BIC(0)+shift0.01"].build()
        assert m_shift is m_plain  # refactored, not re-allocated
        assert m_shift.name == "BIC(0)+shift0.01"

    def test_end_to_end_solve_records_history(self, contact):
        history = PolicyHistory()
        policy = SolverPolicy("cost", history=history)
        stages, decision = policy.ladder(contact.a, contact.groups)
        res = ResilientSolver(
            contact.a, stages,
            on_stage_result=lambda name, r: policy.record_outcome(
                decision, name,
                seconds=r.solve_seconds, converged=r.converged,
                iterations=r.iterations,
            ),
        ).solve(contact.b)
        assert res.converged
        (tally,) = history.to_dict()["outcomes"][decision.fingerprint].values()
        assert tally["runs"] >= 1 and tally["total_iterations"] >= res.iterations

    def test_static_outcomes_are_not_recorded(self, contact):
        history = PolicyHistory()
        policy = SolverPolicy("static", history=history)
        decision = policy.decide(contact.a, contact.groups)
        policy.record_outcome(decision, "BIC(0)", seconds=1.0, converged=True)
        assert len(history) == 0  # no probe, no fingerprint, nothing tallied

    def test_explain_names_the_evidence(self, contact):
        policy = SolverPolicy("cost")
        decision = policy.decide(contact.a, contact.groups)
        text = decision.explain()
        assert decision.fingerprint in text
        assert "ladder order" in text
        assert "predicted costs" in text
        d = decision.to_dict()
        assert d["order"] == list(decision.order)
        assert d["fingerprint"] == decision.fingerprint
        lead = decision.cost_of(decision.order[0])
        assert d["predicted_iterations"] == lead.predicted_iterations
        assert d["predicted_seconds"] == lead.predicted_seconds
        static = SolverPolicy("static").decide(contact.a, contact.groups).to_dict()
        assert static["predicted_iterations"] is None  # nothing was priced


class TestServeIntegration:
    def _req(self, job_id, penalty=1.0e4):
        return SolveRequest(job_id=job_id, model="block", scale=0.4,
                            penalty=penalty, precond="auto", rhs="model")

    def test_auto_precond_resolves_and_solves(self):
        session = SolverSession()
        resp = session.solve(self._req("auto-1"))
        assert resp.ok and resp.converged
        assert len(session.workspace.policy_history) >= 1
        assert session.stats()["policy"] == {"history_classes": 1}

    def test_auto_answers_with_selective_blocking(self):
        """serve_mixed's auto request: swjapan 1.0 at lambda ~ 1e6 needs
        ~70 SB-BIC(0) iterations, ~2 100 under Diagonal scaling."""
        session = SolverSession()
        resp = session.solve(SolveRequest(
            job_id="auto-swjapan", model="swjapan", scale=1.0,
            penalty=1.03e6, precond="auto", rhs={"seed": 7}))
        assert resp.ok and resp.converged
        assert resp.iterations < 200
        outcomes = session.workspace.policy_history.to_dict()["outcomes"]
        assert [list(by_family) for by_family in outcomes.values()] == [["sbbic0"]]

    def test_auto_prices_at_the_request_tolerance(self):
        """The cost model ranks at the ``eps`` CG will stop at, so the
        outcome span's prediction is the one for that tolerance."""
        session = SolverSession()
        with obs.observe() as sess:
            resp = session.solve(SolveRequest(
                job_id="auto-eps", model="block", scale=0.4, penalty=1.0e6,
                precond="auto", rhs="model", eps=1.0e-4))
            outcome = next(s for s in sess.tracer.iter_spans()
                           if s.name == "policy.outcome")
        assert resp.ok and resp.converged
        probe = session.policy.probe(None, cache_key=resp.fingerprint)  # cached
        family = (outcome.attrs["choice"],)
        (at_eps,) = candidate_costs(probe, eps=1.0e-4, families=family)
        (at_default,) = candidate_costs(probe, families=family)
        assert outcome.attrs["predicted_iterations"] == at_eps.predicted_iterations
        assert at_eps.predicted_iterations < at_default.predicted_iterations


class TestPolicyTableExporter:
    def test_empty_trace(self):
        assert obs.policy_table([]) == "(no policy spans in trace)"

    def test_tables_from_flat_records(self):
        records = [
            {"kind": "span", "name": "policy.decide", "duration_s": 0.01,
             "t_start_s": 0.0,
             "attrs": {"fingerprint": "v1:n3", "mode": "cost",
                       "order": "diag->bic0", "source": "cost model ranking"}},
            {"kind": "span", "name": "policy.outcome", "duration_s": 0.5,
             "t_start_s": 0.1,
             "attrs": {"fingerprint": "v1:n3", "choice": "diag",
                       "stage": "Diagonal", "converged": True,
                       "iterations": 42}},
        ]
        text = obs.policy_table(records)
        assert "v1:n3" in text
        assert "diag->bic0" in text
        assert "Diagonal" in text
        assert "cost model ranking" in text
        # no prediction on the span (an older trace): dashes, not a crash
        assert text.splitlines()[-1].split()[-5:] == ["-", "-", "500.0", "-", "-"]

    def test_outcome_rows_show_measured_over_predicted(self):
        records = [
            {"kind": "span", "name": "policy.outcome", "duration_s": 0.06,
             "t_start_s": 0.1,
             "attrs": {"fingerprint": "v1:n3", "choice": "sbbic0",
                       "stage": "sbbic0", "converged": True, "iterations": 69,
                       "predicted_iterations": 62, "predicted_seconds": 0.005}},
        ]
        header, row = obs.policy_table(records).splitlines()
        assert header.split()[4:] == [
            "iters", "pred", "m/p", "wall", "ms", "pred", "ms", "m/p"]
        assert row.split()[-6:] == ["69", "62", "1.11", "60.0", "5", "12.00"]

    def test_live_policy_emits_consumable_spans(self, contact, tmp_path):
        from repro.obs.export import export_jsonl, load_jsonl_records

        with obs.observe() as sess:
            policy = SolverPolicy("cost")
            decision = policy.decide(contact.a, contact.groups)
            policy.record_outcome(decision, "Diagonal", seconds=0.1,
                                  converged=True, iterations=5)
            text = obs.policy_table(sess.tracer)
            outcome = next(s for s in sess.tracer.iter_spans()
                           if s.name == "policy.outcome")
        assert decision.fingerprint in text
        predicted = decision.cost_of("diag")
        assert outcome.attrs["predicted_iterations"] == predicted.predicted_iterations
        assert outcome.attrs["predicted_seconds"] == predicted.predicted_seconds
        # the exported trace renders the same table
        path = export_jsonl(sess.tracer, tmp_path / "trace.jsonl")
        assert obs.policy_table(load_jsonl_records(path)) == text


class TestCli:
    def test_policy_explain(self, capsys):
        from repro.cli import main
        assert main(["policy", "explain", "--model", "block",
                     "--scale", "0.4", "--penalty", "1e6"]) == 0
        out = capsys.readouterr().out
        assert "ladder order" in out
        assert "fingerprint" in out

    def test_readme_example_leads_with_selective_blocking(self, capsys):
        from repro.cli import main
        assert main(["policy", "explain", "--model", "swjapan",
                     "--penalty", "1e8"]) == 0
        out = capsys.readouterr().out
        assert "ladder order: sbbic0 -> " in out

    def test_solve_with_policy(self, capsys):
        from repro.cli import main
        for mode in ("static", "cost"):
            assert main(["solve", "--model", "block", "--scale", "0.4",
                         "--penalty", "1e4", "--policy", mode]) == 0
            out = capsys.readouterr().out
            assert f"policy mode: {mode}" in out and f"policy {mode}" in out

    def test_removed_policy_options_are_rejected(self):
        from repro.cli import main
        for argv in (["solve", "--policy", "learned"],
                     ["policy", "explain", "--mode", "learned"],
                     ["solve", "--policy", "cost", "--policy-history", "h.json"],
                     ["policy", "explain", "--history", "h.json"],
                     ["batch", "r.jsonl", "--policy-mode", "cost"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
