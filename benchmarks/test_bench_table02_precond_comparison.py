"""Table 2: the headline preconditioner comparison (single PE)."""

from repro.experiments import table02_precond_comparison


def test_table02_precond_comparison(run_experiment):
    table = run_experiment(table02_precond_comparison.run, scale=0.9)
    # the wall-clock form of the headline lives here, behind the bench
    # marker: tier-1 checks the deterministic census claims only
    assert table02_precond_comparison.sb_bic0_fastest_wall_clock(table)
