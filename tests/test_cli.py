import inspect
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.index import EXPERIMENTS
from repro.obs import load_jsonl_records


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert [ln.split()[0] for ln in out.splitlines()] == list(EXPERIMENTS)
        assert {"table02", "fig26", "fig31", "tableA-swjapan"} <= set(EXPERIMENTS)

    def test_run_experiment(self, capsys):
        code = main(["run", "fig05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Work ratio" in out
        assert "PASS" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_solve_block(self, capsys):
        code = main(["solve", "--model", "block", "--scale", "0.4", "--precond", "sbbic0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged" in out and "SB-BIC(0)" in out

    def test_solve_reports_the_peak_rss(self, capsys):
        """The ``memory:`` line ends with the process's resident-set
        high-water mark, after the factor / plan / symbolic bytes."""
        resource = pytest.importorskip("resource")
        code = main(["solve", "--model", "block", "--scale", "0.4", "--precond", "sbbic0"])
        line = next(s for s in capsys.readouterr().out.splitlines() if "memory:" in s)
        assert code == 0
        fields = line.split("memory: ")[1].split(", ")
        assert [f.split()[0] for f in fields] == ["factor", "plan", "symbolic", "peak"]
        peak = float(fields[-1].split()[2])
        assert fields[-1] == f"peak RSS {peak:.1f} MiB"
        now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**10
        assert 0 < peak <= now + 0.1

    def test_solve_diag(self, capsys):
        code = main(["solve", "--model", "block", "--scale", "0.4", "--precond", "diag", "--penalty", "1e2"])
        assert code == 0

    @pytest.mark.parametrize("transport", ["lockstep", "process"])
    def test_solve_distributed(self, capsys, tmp_path, transport):
        code = main([
            "solve", "--model", "block", "--scale", "0.4", "--transport", transport,
            "--ndomains", "2", "--rank-traces", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert f"transport {transport}, 2 domains" in out
        # --rank-traces is the process transport's: lockstep writes none
        traces = sorted(p.name for p in tmp_path.glob("trace.rank*.jsonl"))
        assert traces == (
            ["trace.rank0.jsonl", "trace.rank1.jsonl"] if transport == "process" else []
        )

    def test_two_domains_cost_at_most_a_tenth_more_iterations(self, capsys):
        """``--transport`` partitions contact-aware (paper Table 3): every
        contact group on one domain.  Plain RCB cut them and took 626
        iterations against 49 serial on this model."""
        counts = []
        for extra in ([], ["--transport", "lockstep", "--ndomains", "2"]):
            code = main(["solve", "--model", "block", "--scale", "0.6", "--precond", "sbbic0", *extra])
            assert code == 0
            counts.append(int(re.search(r"in (\d+) iters", capsys.readouterr().out).group(1)))
        serial, two = counts
        assert two <= 1.1 * serial, counts

    @pytest.mark.parametrize("precond", ["auto", "ic0"])
    def test_transport_solve_needs_a_localized_family(self, capsys, precond):
        """``--transport`` solves one family per domain: ``auto`` (a
        ladder) and scalar IC(0) have no per-domain form, and the CLI
        says so instead of solving something else."""
        code = main([
            "solve", "--model", "block", "--scale", "0.3", "--transport", "lockstep",
            "--ndomains", "2", "--precond", precond,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{precond!r} has no per-domain (localized) form" in captured.err
        assert "['bic0', 'bic1', 'bic2', 'diag', 'sbbic0']" in captured.err

    def test_trace_solve_span_carries_the_printed_iterations(self, capsys, tmp_path):
        out_path = tmp_path / "x.jsonl"
        code = main(["trace", "--model", "block", "--scale", "0.5", "--out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        iterations = int(re.search(r"converged in (\d+) iters", out).group(1))
        records = load_jsonl_records(out_path)
        (solve,) = [r for r in records if r["name"] == "cg_solve"]
        assert solve["attrs"]["iterations"] == iterations
        assert solve["attrs"]["converged"] is True
        assert sum(r["name"] == "cg.iteration" for r in records) == iterations
        # the summary is the span table and the event count, nothing else
        summary = out[out.index("\nspan "):]
        assert "cg_solve" in summary and "point events" in summary
        assert "metric" not in out

    def test_solve_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            main(["solve", "--model", "venus"])

    def test_every_experiment_registered_is_callable(self):
        for key, exp in EXPERIMENTS.items():
            assert exp.key == key and exp.title
            # its report kwargs name real parameters of the harness
            inspect.signature(exp.run).bind(**exp.kwargs)

    def test_experiments_md_has_one_section_per_index_entry(self):
        md = (Path(__file__).resolve().parent.parent / "EXPERIMENTS.md").read_text()
        sections = [ln[3:] for ln in md.splitlines() if ln.startswith("## ")]
        assert sections == [exp.title for exp in EXPERIMENTS.values()]

    def test_run_scale_resizes_mesh_campaigns_only(self, monkeypatch, capsys):
        seen = []
        table = EXPERIMENTS["fig05"].run()
        for key in ("fig28", "fig05"):
            monkeypatch.setitem(
                EXPERIMENTS, key,
                EXPERIMENTS[key]._replace(run=lambda **kw: seen.append(kw) or table),
            )
        assert main(["run", "fig28"]) == 0
        assert main(["run", "fig28", "--scale", "0.5"]) == 0
        assert main(["run", "fig05", "--scale", "0.5"]) == 0
        assert seen == [
            {"model": "block", "scale": 0.9},
            {"model": "block", "scale": 0.5},
            {},
        ]

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
