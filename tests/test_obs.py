"""Unified observability layer: spans, metrics, exporters, agreement.

Three layers of coverage:

- unit: ``Tracer``/``Span`` nesting and thread behavior,
  ``MetricsRegistry`` semantics, the disabled-path null session;
- exporters: JSON-lines records, Chrome trace-event well-formedness
  (matched ``B``/``E`` per thread lane — the CI smoke contract), the
  terminal summary table;
- agreement: a traced solve must tell the same story as the legacy
  counters (``CommLog``) and the factor's own bookkeeping it subsumes.
"""

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.fem.assembly import assemble_stiffness
from repro.fem.bc import all_dofs, apply_dirichlet, component_dofs, surface_load
from repro.fem.generators import simple_block_model
from repro.fem.nonlinear import solve_nonlinear_contact
from repro.obs.core import Tracer
from repro.obs.export import chrome_trace_events, export_jsonl, summary_table
from repro.obs.metrics import MetricsRegistry
from repro.parallel import DistributedSystem, parallel_cg, partition_nodes_rcb
from repro.precond import bic, sb_bic0
from repro.solvers.cg import cg_solve


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test must leave observability disabled."""
    yield
    assert obs.session() is None, "test leaked an active obs session"
    obs.disable()


class TestTracer:
    def test_nesting_builds_tree(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                pass
        assert tr.roots == [outer]
        assert outer.children == [inner]
        assert inner.parent_id == outer.span_id
        assert inner.t_end is not None and outer.t_end is not None
        assert outer.t_end >= inner.t_end >= inner.t_start >= outer.t_start

    def test_exception_unwinds_and_closes(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("outer"):
                with tr.span("inner"):
                    raise RuntimeError("boom")
        assert len(tr.roots) == 1
        for sp in tr.iter_spans():
            assert sp.t_end is not None
        # and the stack is clean: a new span is a fresh root
        with tr.span("after"):
            pass
        assert [r.name for r in tr.roots] == ["outer", "after"]

    def test_event_attaches_to_current_span(self):
        tr = Tracer()
        with tr.span("solve"):
            tr.event("iteration", it=1, relres=0.5)
        (root,) = tr.roots
        (ev,) = root.children
        assert ev.kind == "event"
        assert ev.t_end == ev.t_start
        assert ev.attrs == {"it": 1, "relres": 0.5}

    def test_record_span_backdates(self):
        tr = Tracer()
        with tr.span("setup"):
            tr.record_span("symbolic", 1.25, ndof=30)
        (sym,) = tr.find("symbolic")
        assert sym.duration == pytest.approx(1.25)
        assert sym.parent_id == tr.roots[0].span_id

    def test_set_attrs_chainable(self):
        tr = Tracer()
        with tr.span("s") as sp:
            assert sp.set(bytes=8).set(messages=1) is sp
        assert sp.attrs == {"bytes": 8, "messages": 1}

    def test_aggregation_helpers(self):
        tr = Tracer()
        for _ in range(3):
            with tr.span("halo"):
                pass
        assert tr.count("halo") == 3
        assert tr.total_seconds("halo") >= 0.0
        assert len(tr) == 3

    def test_threads_get_independent_stacks(self):
        tr = Tracer()
        ready = threading.Barrier(2)

        def work(label):
            ready.wait()
            with tr.span(label):
                with tr.span(f"{label}.child"):
                    pass

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(r.name for r in tr.roots) == ["t0", "t1"]
        tids = {r.tid for r in tr.roots}
        assert len(tids) == 2
        for r in tr.roots:
            assert [c.name for c in r.children] == [f"{r.name}.child"]


class TestMetricsRegistry:
    def test_counters_accumulate_by_label(self):
        m = MetricsRegistry()
        m.inc("cg.iterations", precond="BIC(0)")
        m.inc("cg.iterations", 4, precond="BIC(0)")
        m.inc("cg.iterations", precond="SB-BIC(0)")
        assert m.get("cg.iterations", precond="BIC(0)") == 5
        assert m.get("cg.iterations", precond="SB-BIC(0)") == 1
        assert m.get("cg.iterations", precond="absent") == 0.0
        assert m.total("cg.iterations") == 6

    def test_gauge_holds_latest(self):
        m = MetricsRegistry()
        m.set("penalty", 1e6)
        m.set("penalty", 1e5)
        assert m.get("penalty") == 1e5

    def test_histogram_summary(self):
        m = MetricsRegistry()
        for v in (1.0, 3.0, 2.0):
            m.observe("bytes", v)
        h = m.histogram("bytes")
        assert h["count"] == 3
        assert h["total"] == 6.0
        assert h["min"] == 1.0 and h["max"] == 3.0
        assert h["mean"] == 2.0
        assert m.histogram("absent") is None

    def test_snapshot_is_json_safe(self):
        m = MetricsRegistry()
        m.inc("c", rank=3)
        m.set("g", 2.5)
        m.observe("h", 1.0, kind="nan")
        snap = json.loads(json.dumps(m.snapshot()))
        assert snap["counters"]["c"] == [{"labels": {"rank": "3"}, "value": 1.0}]
        assert snap["gauges"]["g"][0]["value"] == 2.5
        assert snap["histograms"]["h"][0]["value"]["count"] == 1
        assert m.names() == ["c", "g", "h"]


class TestSessionHelpers:
    def test_disabled_helpers_are_noops(self):
        assert obs.session() is None
        sp = obs.span("anything", k=1)
        assert sp is obs.span("other")  # the shared null-span singleton
        with sp as inner:
            assert inner.set(x=1) is inner
        obs.event("e")
        obs.record_span("r", 1.0)
        obs.metric_inc("m")
        obs.metric_set("m", 1.0)
        obs.metric_observe("m", 1.0)

    def test_observe_scopes_and_restores(self):
        outer = obs.enable()
        try:
            with obs.observe() as inner:
                assert obs.session() is inner
                assert inner is not outer
            assert obs.session() is outer
        finally:
            obs.disable()

    def test_observe_restores_on_exception(self):
        with pytest.raises(ValueError):
            with obs.observe():
                raise ValueError
        assert obs.session() is None

    def test_helpers_route_to_active_session(self):
        with obs.observe() as sess:
            with obs.span("phase", k=1):
                obs.event("tick")
            obs.metric_inc("n", 2)
        assert sess.tracer.count("phase") == 1
        assert sess.tracer.count("tick") == 1
        assert sess.metrics.get("n") == 2


def _assert_chrome_well_formed(doc):
    """Every thread lane must have stack-matched B/E pairs."""
    stacks: dict[int, list[str]] = {}
    n_pairs = 0
    for ev in doc["traceEvents"]:
        assert ev["ph"] in ("B", "E", "i")
        st = stacks.setdefault(ev["tid"], [])
        if ev["ph"] == "B":
            st.append(ev["name"])
        elif ev["ph"] == "E":
            assert st, f"E event {ev['name']} with no open B"
            assert st.pop() == ev["name"]
            n_pairs += 1
    for tid, st in stacks.items():
        assert st == [], f"unclosed B events in lane {tid}: {st}"
    return n_pairs


class TestExporters:
    def _session_with_data(self):
        with obs.observe() as sess:
            with obs.span("solve", ndof=12):
                with obs.span("iterations"):
                    obs.event("iteration", it=1)
            obs.metric_inc("cg.iterations", 7, precond="BIC(0)")
        return sess

    def test_jsonl_roundtrip(self, tmp_path):
        sess = self._session_with_data()
        path = export_jsonl(sess.tracer, tmp_path / "t.jsonl", sess.metrics)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [r["kind"] for r in records]
        assert kinds == ["span", "span", "event", "metrics"]
        by_name = {r["name"]: r for r in records[:-1]}
        assert by_name["iterations"]["parent_id"] == by_name["solve"]["span_id"]
        assert records[-1]["counters"]["cg.iterations"][0]["value"] == 7

    def test_chrome_trace_matched_pairs(self):
        sess = self._session_with_data()
        doc = chrome_trace_events(sess.tracer, sess.metrics)
        n_pairs = _assert_chrome_well_formed(doc)
        assert n_pairs == 2  # solve + iterations
        assert sum(1 for e in doc["traceEvents"] if e["ph"] == "i") == 1
        assert doc["otherData"]["metrics"]["counters"]["cg.iterations"]

    def test_export_chrome_trace_creates_parent_dirs(self, tmp_path):
        sess = self._session_with_data()
        path = obs.export_chrome_trace(
            sess.tracer, tmp_path / "deep" / "t.json", sess.metrics
        )
        doc = json.loads(path.read_text())
        _assert_chrome_well_formed(doc)

    def test_summary_table_lists_spans_and_metrics(self):
        sess = self._session_with_data()
        text = summary_table(sess.tracer, sess.metrics)
        assert "solve" in text and "iterations" in text
        assert "cg.iterations" in text and "precond=BIC(0)" in text
        assert summary_table(None, None) == "(empty trace)"


class TestTracedSolveAgreement:
    """The unified trace must agree with the legacy counters it subsumes."""

    def test_cg_solve_spans_and_metrics(self, block_problem_small):
        p = block_problem_small
        with obs.observe() as sess:
            m = sb_bic0(p.a, p.groups)
            res = cg_solve(p.a, p.b, m)
        assert res.converged

        # spans: one solve, one sweep, one symbolic + one numeric setup
        assert sess.tracer.count("cg_solve") == 1
        assert sess.tracer.count("cg_iterations") == 1
        assert sess.tracer.count("ic_symbolic") == 1
        assert sess.tracer.count("ic_numeric") == 1
        # per-iteration events mirror the iteration count exactly
        assert sess.tracer.count("cg.iteration") == res.iterations
        assert sess.metrics.total("cg.iterations") == res.iterations
        # registry counts the set-ups the factor itself counted
        assert sess.metrics.total("setup.symbolic") == 1
        assert sess.metrics.total("setup.numeric") == m.numeric_setup_count == 1
        # backdated spans carry the legacy wall-clock bookkeeping verbatim
        (sym,) = sess.tracer.find("ic_symbolic")
        assert sym.duration == pytest.approx(m.symbolic.build_seconds)
        (num,) = sess.tracer.find("ic_numeric")
        assert num.duration == pytest.approx(m.numeric_seconds)
        assert sess.metrics.get("cg.solves", precond=m.name, converged=True) == 1

    def test_setup_spans_carry_their_phases(self, block_problem_small):
        """`repro trace` can say where set-up time went: assembly, the
        symbolic phase and the numeric phase each record their
        consecutive sub-phases as children that tile the parent span
        exactly."""
        from repro.fem.model import build_contact_problem

        with obs.observe() as sess:
            p = build_contact_problem(block_problem_small.mesh, penalty=1e6)
            m = sb_bic0(p.a, p.groups)
        (asm,) = sess.tracer.find("assembly")
        assert [c.name for c in asm.children] == [
            "assembly.slots",
            "assembly.element",
            "assembly.mask",
            "assembly.dirichlet",
        ]
        assert asm.attrs["n_elem"] == p.mesh.n_elem
        # a uniform grid under one material shares one element matrix
        assert asm.attrs["n_shapes"] == 1
        # what the system stores, and what the round-off rule dropped
        assert asm.attrs["nnz_stored"] == p.a.nnz
        assert 0 < asm.attrs["nnz_dropped"] < p.a.nnz
        (sym,) = sess.tracer.find("ic_symbolic")
        assert [c.name for c in sym.children] == [
            "ic_symbolic.ordering",
            "ic_symbolic.pattern",
            "ic_symbolic.maps",
            "ic_symbolic.apply_structs",
        ]
        # what the symbolic object keeps, as the factor's census reports it
        assert sym.attrs["symbolic_bytes"] == m.symbolic.memory_bytes() > 0
        assert m.factorization_stats()["symbolic_bytes"] == sym.attrs["symbolic_bytes"]
        (num,) = sess.tracer.find("ic_numeric")
        assert [c.name for c in num.children] == [
            "ic_numeric.scatter",
            "ic_numeric.factor",
            "ic_numeric.gather",
        ]
        for parent in (asm, sym, num):
            kids = parent.children
            assert all(c.parent_id == parent.span_id for c in kids)
            assert sum(c.duration for c in kids) == pytest.approx(parent.duration)
            assert kids[0].t_start == pytest.approx(parent.t_start)
            assert kids[-1].t_end == pytest.approx(parent.t_end)
            assert all(a.t_end == b.t_start for a, b in zip(kids, kids[1:]))
        # the phases show up in the terminal summary and the Chrome trace
        table = summary_table(sess.tracer, sess.metrics)
        assert "assembly.element" in table and "ic_symbolic.maps" in table
        assert "ic_numeric.gather" in table
        _assert_chrome_well_formed(chrome_trace_events(sess.tracer))

    def test_parallel_cg_halo_census_matches_commlog(self, block_problem_small):
        p = block_problem_small
        part = partition_nodes_rcb(p.mesh.coords, 3)

        def factory(sub, nodes):
            return bic(sub, fill_level=0)

        with obs.observe() as sess:
            system = DistributedSystem.from_global(p.a, p.b, part, factory)
            res = parallel_cg(system)
        assert res.converged
        log = system.comm.log

        halos = sess.tracer.find("halo_exchange")
        assert len(halos) == sess.metrics.total("comm.exchanges")
        assert sum(s.attrs["messages"] for s in halos) == log.n_messages
        assert sum(s.attrs["bytes"] for s in halos) == log.bytes_sent
        assert sess.metrics.total("comm.messages") == log.n_messages
        assert sess.metrics.total("comm.bytes") == log.bytes_sent
        assert sess.metrics.total("comm.allreduces") == log.n_allreduce
        hist = sess.metrics.histogram("comm.exchange_bytes")
        assert hist["count"] == len(halos)
        assert hist["total"] == log.bytes_sent
        # halo exchanges nest under the solve span
        (root,) = sess.tracer.find("parallel_cg")
        assert len(root.find("halo_exchange")) == len(halos)
        assert sess.tracer.count("cg.iteration") == len(res.history) - 1

    def test_nonlinear_contact_single_nested_trace(self):
        mesh = simple_block_model(2, 2, 2, 2, 2)
        with obs.observe() as sess:
            k = assemble_stiffness(mesh)
            f = surface_load(
                mesh, mesh.node_sets["zmax"], np.array([0.0, 0.0, -1.0])
            )
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
            res = solve_nonlinear_contact(
                a_free,
                b,
                mesh.contact_groups,
                mesh.n_nodes,
                penalty=1e4,
                precond_factory=lambda a: bic(a, fill_level=0),
            )
        assert res.converged

        # one trace carries assembly, both setup phases and the CG sweeps
        assert sess.tracer.count("assembly") == 1
        assert sess.tracer.count("ic_symbolic") == 1
        assert sess.tracer.count("ic_numeric") >= 1
        (top,) = sess.tracer.find("solve_nonlinear_contact")
        cycles = top.find("alm_cycle")
        assert len(cycles) == res.cycles
        assert sess.metrics.total("alm.cycles") == res.cycles
        # every cycle's inner solve nests inside its cycle span
        assert len(top.find("cg_solve")) == res.cycles
        assert len(top.find("cg_iterations")) == res.cycles
        assert top.attrs["converged"] is True
        # per-iteration events sum to the recorded totals
        assert sess.tracer.count("cg.iteration") == res.total_cg_iterations
        assert sess.metrics.total("cg.iterations") == res.total_cg_iterations
        # and the whole thing exports as a well-formed Chrome trace
        _assert_chrome_well_formed(chrome_trace_events(sess.tracer))

    def test_quick_sweep_trace_is_valid_chrome_json(self, tmp_path):
        """CI smoke contract: the --trace file of a quick sweep run is
        valid JSON whose B/E events are stack-matched."""
        import sys
        from pathlib import Path

        sys.path.insert(
            0, str(Path(__file__).resolve().parent.parent / "scripts")
        )
        import fault_sweep

        out = tmp_path / "fault_sweep.trace.json"
        rc = fault_sweep.main(["--quick", "--trace", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        n_pairs = _assert_chrome_well_formed(doc)
        assert n_pairs > 0
        assert doc["otherData"]["metrics"]["counters"]["comm.exchanges"]


class TestJournalCommitSpan:
    def test_one_span_per_commit_with_records_and_bytes(self, tmp_path):
        from repro.io.joblog import JobLog

        log = JobLog(tmp_path)
        with obs.observe() as sess:
            log.commit("req", [(f"j{i}", {"v": np.ones(3)}, {}) for i in range(4)])
            log.commit("res", [("j0", {}, {"ok": True})])
        stats = log.stats()
        log.close()
        spans = sess.tracer.find("journal.commit")
        assert [s.attrs["kind"] for s in spans] == ["req", "res"]
        assert [s.attrs["records"] for s in spans] == [4, 1]
        assert sum(s.attrs["bytes"] for s in spans) == stats["bytes"]
        hist = sess.metrics.histogram("journal.sync_seconds")
        assert hist["count"] == 2 == stats["commits"]
        assert hist["min"] >= 0.0 and hist["total"] <= sum(s.duration for s in spans)

    def test_queue_process_is_two_commits_around_the_solve(self, tmp_path):
        from repro.serve import JobQueue, SolveRequest, SolverSession

        queue = JobQueue(SolverSession(), journal_dir=tmp_path)
        with obs.observe() as sess:
            for i in range(3):
                queue.submit(SolveRequest(model="block", scale=0.25, penalty=1e4,
                                          rhs={"seed": i}))
            queue.process()
        queue.close()
        names = [s.name for s in sorted(sess.tracer.iter_spans(), key=lambda s: s.t_start)
                 if s.name in ("journal.commit", "serve.job")]
        assert names[0] == names[-1] == "journal.commit"
        assert names.count("journal.commit") == 2 and names.count("serve.job") == 3
