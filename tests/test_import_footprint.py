"""What a solver process loads: only the layers its run uses.

Every rank or solve process pays for each module it imports, in resident
memory and start-up time, whether it runs it or not.  The solver path --
``import repro``, assembling a model, building SB-BIC(0), CG serial or
over real rank processes, ``repro solve`` -- must therefore not load the
dense/sparse direct-solver packages of scipy, the eigen-analysis, the
solver policy, the serve layer or any experiment harness.  Each case runs
in a fresh interpreter, so nothing imported by another test hides a
regression.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

OFF_PATH = ("scipy.linalg", "scipy.sparse.linalg", "repro.analysis", "repro.policy", "repro.serve")
"""Packages no solver-path process may hold in ``sys.modules``."""

MODEL_BUILDERS = "repro.experiments.workloads"
"""The one ``repro.experiments`` module a solve may load; every other
module there is a harness (or the index that imports them all)."""

CASES = {
    "import": "import repro",
    "cold_solve": """
from repro import build_contact_problem, cg_solve, sb_bic0, simple_block_model
p = build_contact_problem(simple_block_model(4, 4, 3, 4, 4), penalty=1e6)
assert cg_solve(p.a, p.b, sb_bic0(p.a, p.groups)).converged
""",
    "process_2rank": """
from repro import DistributedSystem, contact_aware_partition, parallel_cg, sb_bic0
from repro.experiments.workloads import block_problem
from repro.precond.localized import restrict_groups
p = block_problem(0.25)
part = contact_aware_partition(p.mesh.coords, p.groups, 2)
factory = lambda sub, nodes: sb_bic0(sub, restrict_groups(p.groups, nodes, p.mesh.n_nodes))
system = DistributedSystem.from_global(p.a, p.b, part, factory, transport="process")
try:
    assert parallel_cg(system).converged
finally:
    system.close()
""",
    "cli_solve": """
import contextlib, io
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["solve", "--precond", "sbbic0", "--scale", "0.25"]) == 0
""",
}

REPORT = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""


def _loaded(case: str) -> list[str]:
    code = f"import sys\nsys.path.insert(0, {SRC!r})\n{CASES[case]}\n{REPORT}"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", sorted(CASES))
def test_solver_path_loads_no_off_path_layer(case):
    modules = _loaded(case)
    off_path = [
        m for m in modules
        if any(m == pkg or m.startswith(pkg + ".") for pkg in OFF_PATH)
        or (m.startswith("repro.experiments.") and m != MODEL_BUILDERS)
    ]
    assert off_path == [], f"{case} loaded {off_path}"
    assert "repro" in modules
