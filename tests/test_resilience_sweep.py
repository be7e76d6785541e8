"""Tier-1 smoke of the seeded fault-injection sweep (scripts/fault_sweep.py).

The full matrix (fault kind x preconditioner x seed x exchange slot) runs
as a CI script; here the ``--quick`` configuration must report 100%
detection and 100% recovery, which is the contract every future
communication-layer optimization is tested against.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import fault_sweep  # noqa: E402


def test_quick_sweep_full_detection_and_recovery():
    summary = fault_sweep.run_sweep(quick=True)
    assert summary["n_runs"] == 6  # 3 preconditioners x 2 fault kinds
    assert summary["detection_rate"] == 1.0
    assert summary["recovery_rate"] == 1.0
    # every fault was caught in the iteration of its exchange
    assert all(r["detect_iteration"] == r["exchange"] for r in summary["runs"])


def test_cli_entry_quick():
    assert fault_sweep.main(["--quick"]) == 0
