"""Experiment harnesses: one module per table/figure of the paper.

Every module exposes a ``run(...)`` function returning a
:class:`~repro.experiments.common.ReproTable` whose rows put our measured
values next to the paper's reported ones, plus boolean "claims" checking
the qualitative shape (who wins, what is flat, what blows up).

:data:`EXPERIMENTS` is the one index of them: ``repro list`` / ``repro
run``, ``scripts/generate_experiments_md.py`` (one EXPERIMENTS.md section
per entry, in this order) and ``benchmarks/test_bench_paper.py`` (one
benchmark per entry) all read it, so an experiment is either known
everywhere or nowhere.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from repro.experiments.common import ReproTable
from repro.experiments import (
    ablation_twolevel,
    fig02_penalty_tradeoff,
    fig05_work_ratio,
    fig07_cebe_tradeoff,
    fig15_storage_formats,
    fig16_19_weak_scaling,
    fig20_latency_fractions,
    fig26_27_single_node,
    fig28_29_selective_details,
    fig30_32_multi_node,
    smooth_convergence,
    table01_localized_ic0,
    table02_precond_comparison,
    table03_partitioning,
    table04_fig09_scaling,
    tableA_eigen,
)

__all__ = ["EXPERIMENTS", "Experiment", "ReproTable"]


class Experiment(NamedTuple):
    """One reproduced table/figure.

    ``run(**kwargs)`` is the committed EXPERIMENTS.md run; arguments left
    out are the harness's own defaults.  An entry whose ``kwargs`` name a
    ``scale`` is a mesh campaign that ``repro run --scale`` may resize;
    the others (analytical models, fixed-``n`` grids) ignore it.
    """

    key: str  # what ``repro run`` calls it
    title: str  # its EXPERIMENTS.md section heading
    run: Callable[..., ReproTable]
    kwargs: dict[str, Any]


EXPERIMENTS: dict[str, Experiment] = {
    e.key: e
    for e in (
        Experiment("fig02", "Fig. 2 — penalty trade-off (ALM)", fig02_penalty_tradeoff.run, {"scale": 0.6}),
        Experiment("table01", "Table 1 — localized IC(0), 1-32 PEs", table01_localized_ic0.run, {}),
        Experiment("fig05", "Fig. 5 — work ratio vs PE count", fig05_work_ratio.run, {}),
        Experiment("table02", "Table 2 — preconditioner comparison", table02_precond_comparison.run, {"scale": 0.9}),
        Experiment("table03", "Table 3 — partitioning strategies", table03_partitioning.run, {"scale": 0.8}),
        Experiment("table04", "Table 4 / Fig. 9 — preconditioner scaling", table04_fig09_scaling.run, {"scale": 0.8}),
        Experiment("fig07", "Fig. 7 — CEBE cluster-size trade-off", fig07_cebe_tradeoff.run, {"scale": 0.8}),
        Experiment("fig15", "Fig. 15 — storage formats", fig15_storage_formats.run, {}),
        Experiment("fig16-18", "Figs. 16-18 — weak scaling GFLOPS", fig16_19_weak_scaling.run_gflops, {}),
        Experiment("fig19", "Fig. 19 — iterations, hybrid vs flat", fig16_19_weak_scaling.run_iterations, {}),
        Experiment("fig20", "Fig. 20 — latency fractions", fig20_latency_fractions.run, {}),
        Experiment("fig26", "Fig. 26 — color sweep, simple block", fig26_27_single_node.run, {"model": "block", "scale": 0.9}),
        Experiment("fig27", "Fig. 27 — color sweep, Southwest Japan", fig26_27_single_node.run, {"model": "swjapan", "scale": 0.9}),
        Experiment("fig28", "Fig. 28 — selective block size sorting", fig28_29_selective_details.run_blocksort, {"model": "block", "scale": 0.9}),
        Experiment("fig28-swjapan", "Fig. 28 — selective block size sorting (SW Japan)", fig28_29_selective_details.run_blocksort, {"model": "swjapan", "scale": 0.9}),
        Experiment("fig29", "Fig. 29 — imbalance and dummy padding", fig28_29_selective_details.run_imbalance, {"model": "block", "scale": 0.9}),
        Experiment("fig30", "Fig. 30 — multi-node color sweep (block)", fig30_32_multi_node.run_ten_nodes, {"model": "block", "scale": 0.8, "nodes": 4}),
        Experiment("fig31", "Fig. 31 — multi-node color sweep (SW Japan)", fig30_32_multi_node.run_ten_nodes, {"model": "swjapan", "scale": 0.8, "nodes": 4}),
        Experiment("fig32", "Fig. 32 — speed-up, 13 vs 30 colors", fig30_32_multi_node.run_speedup, {"model": "block", "scale": 0.8}),
        Experiment("tableA", "Tables A.1/A.2 — eigenvalues, simple block", tableA_eigen.run, {"model": "block", "scale": 0.5}),
        Experiment("tableA-swjapan", "Tables A.3/A.4 — eigenvalues, SW Japan", tableA_eigen.run, {"model": "swjapan", "scale": 0.5}),
        Experiment("ablation-twolevel", "Ablation — two-level coarse correction", ablation_twolevel.run, {"scale": 0.8}),
        Experiment("smooth", "Claim — robust and smooth convergence", smooth_convergence.run, {"scale": 0.9}),
    )
}
