"""The solver policy layer: probes, decisions, outcome tally.

Coverage:

- probes: fingerprint stability and the penalty-recovery trick
  (``diag_max / diag_median`` sees the MPC penalty without being told);
- decisions: the family table's order with Diagonal scaling first below
  ``DIAG_FIRST_BELOW``, pinned per model x penalty x contact groups
  (``PINNED_FIRST_PICKS``), the rule's threshold on hand-made
  diagonals, and the paper's ranking on real contact problems (the
  policy leads with SB-BIC(0));
- outcome tally: runs / failures / seconds / iterations per fingerprint
  and family;
- policy: the decision end to end through ``ladder()`` +
  :class:`~repro.resilience.resilient.ResilientSolver`, the Diagonal
  backstop invariant, serve-session ``precond="auto"`` resolution, the
  ``policy_table`` exporter, and the CLI entry points.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import obs
from repro.experiments.workloads import (
    block_problem,
    block_structure,
    homogeneous_box_problem,
    swjapan_problem,
    swjapan_structure,
)
from repro.policy import (
    OutcomeStats,
    PolicyHistory,
    ProblemProbe,
    SolverPolicy,
    probe_problem,
)
from repro.policy.ladder import DIAG_FIRST_BELOW
from repro.precond import ladder_families
from repro.resilience.resilient import ResilientSolver, build_ladder
from repro.serve import SolveRequest, SolverSession

from .conftest import paper_ladder, random_spd_csr


@pytest.fixture(scope="module")
def contact():
    """One penalized contact problem shared across the module."""
    return block_problem(0.4, 1.0e6)


@pytest.fixture(scope="module")
def box():
    """A group-free problem — the 'default ladder is wrong here' case."""
    return homogeneous_box_problem(6)


def make_probe(**over):
    """A hand-built probe with controlled knobs."""
    base = dict(
        ndof=3000, nnz=200_000, block_ok=True, n_groups=4, max_group=40,
        group_dofs=480, diag_median=1.0, diag_max=1.0e6, penalty_ratio=1.0e6,
        probe_seconds=0.0,
    )
    base.update(over)
    return ProblemProbe(**base)


class TestProbe:
    def test_fingerprint_is_stable_across_reprobes(self, contact):
        p1 = probe_problem(contact.a, contact.groups)
        p2 = probe_problem(contact.a, contact.groups)
        assert p1.fingerprint() == p2.fingerprint()
        assert p1.fingerprint().startswith("v2:")

    def test_probe_recovers_penalty_from_the_diagonal(self, contact, box):
        p = probe_problem(contact.a, contact.groups)
        assert p.penalty_ratio > 1.0e3  # lambda = 1e6 rows dominate diag
        q = probe_problem(box.a, box.groups)
        assert q.penalty_ratio < 1.0e3
        assert q.n_groups == 0

    def test_probe_census_matches_problem(self, contact):
        p = probe_problem(contact.a, contact.groups)
        assert p.ndof == contact.ndof
        assert p.nnz == contact.a.nnz
        assert p.block_ok
        assert p.n_groups == len(contact.groups)
        assert p.group_dofs == 3 * sum(len(g) for g in contact.groups)

    def test_penalty_shifts_fingerprint_class(self):
        lo = make_probe(penalty_ratio=10.0)
        hi = make_probe(penalty_ratio=1.0e8)
        assert lo.fingerprint() != hi.fingerprint()


# the first family ``auto`` picks, by model x scale x penalty x contact
# groups: the family table's leader, Diagonal below a penalty ratio of
# DIAG_FIRST_BELOW (lambda = 1: ratios 1.6-2.1; lambda = 1e2: ~100).
# The cost model this rule replaced picked otherwise on 23 of these 72
# rows: at lambda = 1 (bic0 at scale 0.4), at lambda = 1e2 (diag or bic0
# at scales 1.0 and 1.5, all but swjapan 1.0 without groups) and on the
# group-free rows at lambda >= 1e8 (diag at every scale).
SCALES = (0.4, 1.0, 1.5)
PENALTIES = (1.0, 1.0e2, 1.0e4, 1.0e6, 1.0e8, 1.0e10)
PINNED_FIRST_PICKS = {
    (model, scale, penalty, grouped): (
        "diag" if penalty == 1.0 else "sbbic0" if grouped else "bic0"
    )
    for model in ("block", "swjapan")
    for scale in SCALES
    for penalty in PENALTIES
    for grouped in (True, False)
}


@pytest.fixture(scope="module")
def first_picks():
    """``auto``'s first family on every ``PINNED_FIRST_PICKS`` row —
    one probe per row, no factorization, no clock."""
    out = {}
    for model, structure in (("block", block_structure), ("swjapan", swjapan_structure)):
        for scale in SCALES:
            s = structure(scale)
            for penalty in PENALTIES:
                a = s.system(penalty)
                for grouped in (True, False):
                    decision = SolverPolicy().decide(a, s.groups if grouped else None)
                    out[model, scale, penalty, grouped] = decision.order[0]
    return out


class TestDecision:
    @pytest.mark.parametrize(
        "row", PINNED_FIRST_PICKS,
        ids=[f"{m}{sc:g}-{p:g}-{'groups' if g else 'nogroups'}"
             for m, sc, p, g in PINNED_FIRST_PICKS])
    def test_first_pick_is_pinned(self, first_picks, row):
        assert first_picks[row] == PINNED_FIRST_PICKS[row]

    def test_box_leads_with_diagonal(self, box):
        assert SolverPolicy().decide(box.a, box.groups).order == ("diag", "bic0")

    @pytest.mark.parametrize("ndof,order", [(6, ("bic0", "diag")), (5, ("ic0", "diag"))])
    def test_rule_threshold(self, ndof, order):
        """Diagonal leads strictly below the threshold, and only moves
        forward: the rest of the table's order stays."""
        for peak, expected in ((np.nextafter(DIAG_FIRST_BELOW, 0.0), ("diag", order[0])),
                               (DIAG_FIRST_BELOW, order)):
            a = sp.diags(np.r_[np.ones(ndof - 1), peak]).tocsr()
            decision = SolverPolicy().decide(a)
            assert decision.order == expected
            assert decision.diag_first == (expected[0] == "diag")

    def test_order_is_the_family_tables_above_the_threshold(self, contact):
        decision = SolverPolicy().decide(contact.a, contact.groups)
        assert decision.order == ladder_families(len(contact.groups), True)
        assert decision.order == ("sbbic0", "bic0", "diag")
        assert not decision.diag_first


RANKING_CASES = [
    (model, penalty)
    for model in ("block", "swjapan")
    for penalty in (1.0e4, 1.0e6, 1.0e8)
]
CASE_IDS = [f"{model}-{penalty:g}" for model, penalty in RANKING_CASES]


@pytest.fixture(scope="module")
def ranked_cases():
    """The decision on serve_mixed's two hot structures (block 0.8,
    swjapan 1.0)."""
    make = {"block": (block_problem, 0.8), "swjapan": (swjapan_problem, 1.0)}
    out = {}
    for model, penalty in RANKING_CASES:
        generator, scale = make[model]
        prob = generator(scale, penalty)
        out[model, penalty] = SolverPolicy().decide(prob.a, prob.groups)
    return out


class TestPaperRanking:
    """The default path agrees with the paper it reproduces (Table 2)."""

    @pytest.mark.parametrize("case", RANKING_CASES, ids=CASE_IDS)
    def test_cost_policy_leads_with_selective_blocking(self, ranked_cases, case):
        decision = ranked_cases[case]
        assert decision.order[0] == "sbbic0", decision.explain()

    def test_group_free_box_still_leads_with_diagonal(self, box):
        decision = SolverPolicy().decide(box.a, box.groups)
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


RUNG_FAMILIES = [
    ("SB-BIC(0)", "sbbic0"),
    ("BIC(0)", "bic0"),
    ("BIC(0)+shift0.01", "bic0"),
    ("BIC(0)+shift0.1", "bic0"),
    ("IC(0) scalar", "ic0"),
    ("IC(0)+shift0.01", "ic0"),
    ("IC(0)+shift0.1", "ic0"),
    ("Diagonal", "diag"),
]


_SB = [("SB-BIC(0)", "sbbic0")]
_BIC = [("BIC(0)", "bic0"), ("BIC(0)+shift0.01", "bic0"), ("BIC(0)+shift0.1", "bic0")]
_IC = [("IC(0) scalar", "ic0"), ("IC(0)+shift0.01", "ic0"), ("IC(0)+shift0.1", "ic0")]
_DIAG = [("Diagonal", "diag")]
PINNED_LADDERS = {
    # (problem, order): the parent's (name, family) rung sequence;
    # "paper" is ladder_families' order for the problem
    ("contact", "paper"): _SB + _BIC + _DIAG,
    ("contact", "diag-first"): _DIAG + _SB + _BIC + _DIAG,
    ("group-free", "paper"): _BIC + _DIAG,
    ("group-free", "diag-first"): _DIAG + _BIC + _DIAG,
    ("scalar", "paper"): _IC + _DIAG,
    ("scalar", "diag-first"): _DIAG + _IC + _DIAG,
}


class TestFamilyOfStage:
    """Every rung ``build_ladder`` emits carries its family, shifted
    retries included, so an outcome is tallied without reading a label."""

    @pytest.fixture(scope="class")
    def ladders(self, contact):
        scalar = random_spd_csr(10, 0.3, np.random.default_rng(3))
        out = {}
        for problem, a, groups in (("contact", contact.a, contact.groups),
                                   ("group-free", contact.a, None),
                                   ("scalar", scalar, None)):
            n_groups = len(groups) if groups else 0
            for tag, order in (("paper", ladder_families(n_groups, a.shape[0] % 3 == 0)),
                               ("diag-first", ("diag", "sbbic0", "bic0"))):
                out[problem, tag] = [(s.name, s.family) for s in build_ladder(a, groups, order)]
        return out

    @pytest.fixture(scope="class")
    def rungs(self, ladders):
        out: dict[str, set] = {}
        for ladder in ladders.values():
            for name, family in ladder:
                out.setdefault(name, set()).add(family)
        return out

    @pytest.mark.parametrize("case", PINNED_LADDERS, ids="-".join)
    def test_ladder_is_pinned(self, ladders, case):
        assert ladders[case] == PINNED_LADDERS[case]

    def test_every_label_is_listed(self, rungs):
        assert set(rungs) == {stage for stage, _ in RUNG_FAMILIES}

    @pytest.mark.parametrize("stage,family", RUNG_FAMILIES)
    def test_mapping(self, rungs, stage, family):
        assert rungs[stage] == {family}


class TestSolverPolicy:
    def test_unknown_mode_rejected(self):
        """There is one way to decide; no mode is known."""
        for mode in ("static", "cost", "vibes"):
            with pytest.raises(TypeError):
                SolverPolicy(mode)

    def test_cost_ladder_keeps_the_paper_order_on_contact(self, contact):
        """On a penalty contact problem the policy's ladder is the
        paper's robustness order, rung for rung."""
        stages, decision = SolverPolicy().ladder(contact.a, contact.groups)
        assert decision.order == ladder_families(len(contact.groups), True)
        assert [(s.name, s.family) for s in stages] == [
            (s.name, s.family) for s in paper_ladder(contact.a, contact.groups)
        ]

    def test_ladder_always_ends_in_diagonal(self, contact, box):
        """The unbreakable backstop: last rung is Diagonal no matter how
        the order was ranked.  A diag-led ladder may retry Diagonal at
        the end (warm restart makes that retry meaningful), but never
        back to back."""
        policy = SolverPolicy()
        for prob in (contact, box):
            stages, _ = policy.ladder(prob.a, prob.groups)
            names = [s.name for s in stages]
            assert names[-1] == "Diagonal"
            assert all(
                not (a == b == "Diagonal") for a, b in zip(names, names[1:])
            )

    def test_ladder_skips_sbbic_without_groups(self, box):
        stages = build_ladder(box.a, box.groups, ("sbbic0", "bic0", "diag"))
        assert all(s.name != "SB-BIC(0)" for s in stages)

    def test_shift_rungs_share_one_factorization(self, contact):
        """The second BIC rung must refactor the first rung's object in
        place (the shared-cache contract of ``build_ladder``)."""
        stages = build_ladder(contact.a, contact.groups, ("bic0", "diag"))
        by_name = {s.name: s for s in stages}
        m_plain = by_name["BIC(0)"].build()
        m_shift = by_name["BIC(0)+shift0.01"].build()
        assert m_shift is m_plain  # refactored, not re-allocated
        assert m_shift.name == "BIC(0)+shift0.01"

    @pytest.mark.parametrize("first", ["plain", "shifted"])
    @pytest.mark.parametrize("problem", ["contact", "scalar"])
    def test_numeric_span_names_its_rung(self, contact, problem, first):
        """A rung is named before its numeric phase runs, so each
        ``ic_numeric`` span carries the label of the rung it factored —
        whether the plain rung is built first (the shifted ones refactor
        it) or a shifted one is (it builds the factor itself)."""
        if problem == "contact":
            a, groups = contact.a, contact.groups
        else:
            a, groups = random_spd_csr(10, 0.3, np.random.default_rng(3)), None
        ic = [s for s in build_ladder(a, groups, ("bic0",)) if s.family != "diag"]
        assert len(ic) == 3
        if first == "shifted":
            ic.reverse()
        with obs.observe() as tracer:
            for stage in ic:
                stage.build()
        spans = tracer.find("ic_numeric")
        assert [s.attrs["precond"] for s in spans] == [stage.name for stage in ic]
        assert [s.attrs["shift"] > 0.0 for s in spans] == [
            "shift" in stage.name for stage in ic
        ]

    def test_end_to_end_solve_records_history(self, contact):
        history = PolicyHistory()
        policy = SolverPolicy(history=history)
        stages, decision = policy.ladder(contact.a, contact.groups)
        res = ResilientSolver(
            contact.a, stages,
            on_stage_result=lambda stage, r: policy.record_outcome(
                decision, stage.family, stage=stage.name,
                seconds=r.solve_seconds, converged=r.converged,
                iterations=r.iterations,
            ),
        ).solve(contact.b)
        assert res.converged
        (tally,) = history.to_dict()["outcomes"][decision.fingerprint].values()
        assert tally["runs"] >= 1 and tally["total_iterations"] >= res.iterations

    def test_shifted_rung_outcome_counts_toward_its_family(self, contact):
        """A shifted retry is tallied under its base family (the shift
        schedule is part of the rung the policy chose); the span keeps
        the rung's own label."""
        history = PolicyHistory()
        policy = SolverPolicy(history=history)
        stages, decision = policy.ladder(contact.a, contact.groups)
        shifted = next(s for s in stages if "shift" in s.name)
        with obs.observe() as tracer:
            policy.record_outcome(decision, shifted.family, stage=shifted.name,
                                  seconds=1.0, converged=True)
            span = next(s for s in tracer.iter_spans()
                        if s.name == "policy.outcome")
        assert list(history.to_dict()["outcomes"][decision.fingerprint]) == ["bic0"]
        assert (span.attrs["choice"], span.attrs["stage"]) == ("bic0", shifted.name)

    def test_explain_names_the_evidence(self, contact, box):
        policy = SolverPolicy()
        decision = policy.decide(contact.a, contact.groups)
        text = decision.explain()
        p = decision.probe
        assert decision.fingerprint in text
        assert f"ndof={p.ndof} nnz={p.nnz} groups={p.n_groups}" in text
        assert f"penalty_ratio={p.penalty_ratio:.3g}" in text
        assert ">= 30: table order kept" in text
        assert "ladder order: sbbic0 -> bic0 -> diag" in text
        text = policy.decide(box.a, box.groups).explain()
        assert "< 30: diag moved first" in text
        assert "ladder order: diag -> bic0" in text


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


class TestPolicyTableExporter:
    def test_empty_trace(self):
        assert obs.policy_table([]) == "(no policy spans in trace)"

    def test_tables_from_flat_records(self):
        records = [
            {"kind": "span", "name": "policy.decide", "duration_s": 0.01,
             "t_start_s": 0.0,
             "attrs": {"fingerprint": "v1:n3", "order": "diag->bic0"}},
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
        assert text.splitlines()[-1].split() == [
            "v1:n3", "diag", "Diagonal", "y", "42", "500.0"]

    def test_outcome_rows_show_iterations_and_wall_time(self):
        """One column per measured fact; a trace written when outcomes
        carried the cost model's predictions renders the same."""
        records = [
            {"kind": "span", "name": "policy.outcome", "duration_s": 0.06,
             "t_start_s": 0.1,
             "attrs": {"fingerprint": "v1:n3", "choice": "sbbic0",
                       "stage": "sbbic0", "converged": True, "iterations": 69,
                       "predicted_iterations": 62, "predicted_seconds": 0.005}},
        ]
        header, row = obs.policy_table(records).splitlines()
        assert header.split() == [
            "fingerprint", "choice", "stage", "conv", "iters", "wall", "ms"]
        assert row.split() == ["v1:n3", "sbbic0", "sbbic0", "y", "69", "60.0"]

    def test_live_policy_emits_consumable_spans(self, contact, tmp_path):
        from repro.obs.export import export_jsonl, load_jsonl_records

        with obs.observe() as tracer:
            policy = SolverPolicy()
            decision = policy.decide(contact.a, contact.groups)
            policy.record_outcome(decision, "diag", seconds=0.1,
                                  converged=True, iterations=5)
            text = obs.policy_table(tracer)
            outcome = next(s for s in tracer.iter_spans()
                           if s.name == "policy.outcome")
        assert decision.fingerprint in text
        assert outcome.attrs == {
            "fingerprint": decision.fingerprint, "choice": "diag",
            "stage": "diag", "converged": True, "iterations": 5}
        # the exported trace renders the same table
        path = export_jsonl(tracer, tmp_path / "trace.jsonl")
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
        assert main(["solve", "--model", "block", "--scale", "0.4",
                     "--penalty", "1e4", "--precond", "auto"]) == 0
        out = capsys.readouterr().out
        assert "ladder order: sbbic0 -> bic0 -> diag" in out
        assert "precond auto" in out and "converged in 26 iters" in out

    def test_removed_policy_options_are_rejected(self):
        from repro.cli import main
        for argv in (["solve", "--policy", "learned"],
                     ["solve", "--policy", "cost"],
                     ["policy", "explain", "--mode", "learned"],
                     ["policy", "explain", "--mode", "cost"],
                     ["solve", "--policy", "cost", "--policy-history", "h.json"],
                     ["policy", "explain", "--history", "h.json"],
                     ["batch", "r.jsonl", "--policy-mode", "cost"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
