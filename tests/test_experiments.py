"""Integration: every experiment harness runs and its paper claims hold.

These use tiny scales so the whole file stays fast; the benchmarks run
the same harnesses at the reporting scale.
"""

import pytest

from repro.experiments.common import ReproTable
from repro.experiments import (
    ablation_twolevel,
    smooth_convergence,
    fig02_penalty_tradeoff,
    fig05_work_ratio,
    fig07_cebe_tradeoff,
    fig15_storage_formats,
    fig16_19_weak_scaling,
    fig20_latency_fractions,
    fig26_27_single_node,
    fig28_29_selective_details,
    fig30_32_multi_node,
    table01_localized_ic0,
    table02_precond_comparison,
    table03_partitioning,
    table04_fig09_scaling,
    tableA_eigen,
)


def assert_claims(table: ReproTable):
    assert table.rows, f"{table.title}: no rows produced"
    assert table.all_claims_hold, f"{table.title}: failed {table.failed_claims()}"


class TestReproTable:
    def test_row_length_validation(self):
        t = ReproTable("t", "p", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_render_contains_claims(self):
        t = ReproTable("t", "p", ["a"])
        t.add_row(1)
        t.claim("always", True)
        out = t.render()
        assert "PASS" in out and "t" in out


class TestExperimentClaims:
    def test_fig02(self):
        assert_claims(fig02_penalty_tradeoff.run(scale=0.4, lambdas=(1e1, 1e3, 1e5)))

    def test_table01(self):
        assert_claims(table01_localized_ic0.run(n=8, pe_counts=(1, 2, 4, 8)))

    def test_fig05(self):
        assert_claims(fig05_work_ratio.run())

    def test_table02(self):
        assert_claims(table02_precond_comparison.run(scale=0.5))

    def test_table03(self):
        assert_claims(table03_partitioning.run(scale=0.5, ndomains=4, include_fill=False))

    def test_table04_fig09(self):
        assert_claims(table04_fig09_scaling.run(scale=0.5, pe_counts=(2, 4), include_fill=True))

    def test_fig07(self):
        assert_claims(fig07_cebe_tradeoff.run(scale=0.5, cluster_sizes=(1, 4, 8)))

    def test_fig15(self):
        assert_claims(fig15_storage_formats.run(sizes=(16, 64, 128)))

    def test_fig16_18_gflops(self):
        assert_claims(fig16_19_weak_scaling.run_gflops(node_counts=(1, 10, 160), per_node=(64, 256)))

    def test_fig19_iterations(self):
        assert_claims(fig16_19_weak_scaling.run_iterations(n=8, node_counts=(1, 2, 4)))

    def test_fig20(self):
        assert_claims(fig20_latency_fractions.run())

    def test_fig26_block(self):
        assert_claims(fig26_27_single_node.run("block", scale=0.5, colors=(2, 10, 30)))

    def test_fig27_swjapan(self):
        assert_claims(fig26_27_single_node.run("swjapan", scale=0.6, colors=(2, 10, 30)))

    def test_fig28_blocksort(self):
        assert_claims(fig28_29_selective_details.run_blocksort("block", scale=0.6))

    def test_fig29_imbalance(self):
        assert_claims(fig28_29_selective_details.run_imbalance("block", scale=0.6))

    def test_fig30_ten_nodes(self):
        assert_claims(fig30_32_multi_node.run_ten_nodes("block", scale=0.5, colors=(2, 20), nodes=2))

    def test_fig32_speedup(self):
        assert_claims(
            fig30_32_multi_node.run_speedup("block", scale=0.5, color_cases=(5, 20), node_counts=(1, 2, 4))
        )

    def test_tableA_block(self):
        assert_claims(tableA_eigen.run("block", scale=0.35, lambdas=(1e2, 1e8), include_fill=False))

    def test_smooth_convergence(self):
        assert_claims(smooth_convergence.run(scale=0.5))

    def test_ablation_twolevel(self):
        assert_claims(ablation_twolevel.run(scale=0.5, domain_counts=(2, 8)))

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            fig26_27_single_node.run("mars")
