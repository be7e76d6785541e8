"""The paper's tables and figures: one benchmark per experiment-index entry.

Each runs the entry exactly as EXPERIMENTS.md does
(``repro.experiments.EXPERIMENTS``), prints the reproduction table next
to the paper's reference values and asserts its qualitative claims.
"""

import pytest

from repro.experiments import EXPERIMENTS, table02_precond_comparison


@pytest.mark.parametrize("key", list(EXPERIMENTS))
def test_paper_experiment(run_experiment, key):
    exp = EXPERIMENTS[key]
    table = run_experiment(exp.run, **exp.kwargs)
    if key == "table02":
        # the wall-clock form of the headline lives here, behind the bench
        # marker: tier-1 checks the deterministic census claims only
        assert table02_precond_comparison.sb_bic0_fastest_wall_clock(table)
