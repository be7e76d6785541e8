"""BENCHMARK.json against the code, and the one command end to end in
``--quick`` mode (small models, one repetition)."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _quick(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--quick"],
        capture_output=True, text=True, check=False, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_names_are_well_formed_and_match_the_registry():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert SPEC["paths"] == ["bench"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_quick_mode_runs_all_four_workloads_within_a_minute():
    start = time.perf_counter()
    for workload in WORKLOADS:
        result = _quick(workload, trace=0)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert time.perf_counter() - start < 60.0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    result = _quick(workload, trace=1)
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert (ROOT / "bench" / "out" / f"trace_{workload}.jsonl").exists()


def test_same_seed_same_iterations_total():
    runs = [_quick("penalty_sweep", 0, seed)["metrics"]["iterations_total"]["value"]
            for seed in (3, 3, 4)]
    assert runs[0] == runs[1] and runs[0] != runs[2]
