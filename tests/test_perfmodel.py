import numpy as np
import pytest

from repro.fem.generators import simple_block_model
from repro.fem.model import build_contact_problem
from repro.perfmodel import (
    EARTH_SIMULATOR,
    SR2201,
    StructuredSpec,
    census_from_factorization,
    estimate_iteration_time,
)
from repro.perfmodel.kernels import SolverOpCensus, VectorWork
from repro.precond import sb_bic0


class TestVectorPipeline:
    def test_rate_monotone_in_loop_length(self):
        pe = EARTH_SIMULATOR.pe
        assert pe.rate(10) < pe.rate(100) < pe.rate(10000)

    def test_rate_bounded_by_rinf(self):
        pe = EARTH_SIMULATOR.pe
        assert pe.rate(1e9) <= pe.r_inf

    def test_scalar_fallback(self):
        pe = EARTH_SIMULATOR.pe
        assert pe.rate(0) == pe.scalar_flops

    def test_time_includes_startup(self):
        pe = EARTH_SIMULATOR.pe
        one = pe.time_for_loops(np.array([100.0]), 2.0)
        two = pe.time_for_loops(np.array([50.0, 50.0]), 2.0)
        assert two > one  # same work, more loop startups

    def test_empty_loops_zero(self):
        assert EARTH_SIMULATOR.pe.time_for_loops(np.array([]), 2.0) == 0.0


class TestInterconnect:
    def test_allreduce_grows_with_ranks(self):
        ic = EARTH_SIMULATOR.inter_node
        assert ic.allreduce_time(2) < ic.allreduce_time(1024)
        assert ic.allreduce_time(1) == 0.0


class TestStructuredSpec:
    def test_flops_scale_with_size(self):
        c1 = StructuredSpec(16, 16, 16).census()
        c2 = StructuredSpec(32, 32, 32).census()
        ratio = c2.flops_per_iteration / c1.flops_per_iteration
        assert 7.0 < ratio < 9.1  # ~8x the nodes

    def test_flops_per_node_about_1000_per_point(self):
        """Sanity: ~1,000 flops per mesh node per CG iteration (27-point
        stencil block matvec + substitution + BLAS1)."""
        spec = StructuredSpec(32, 32, 32)
        per_node = spec.census().flops_per_iteration / spec.n_nodes
        assert 800 < per_node < 1300

    def test_message_sizes_are_faces(self):
        c = StructuredSpec(16, 16, 16).census()
        assert c.neighbor_message_bytes.size == 6
        assert np.allclose(c.neighbor_message_bytes, 16 * 16 * 24.0)

    def test_more_colors_shorter_loops(self):
        few = StructuredSpec(32, 32, 32, ncolors=10).census()
        many = StructuredSpec(32, 32, 32, ncolors=100).census()
        assert many.phases[0].loop_lengths[0] < few.phases[0].loop_lengths[0]


class TestCensusScaling:
    def test_scaled_flops_linear(self):
        c = StructuredSpec(16, 16, 16).census()
        s = c.scaled(8.0)
        assert np.isclose(s.flops_per_iteration, 8.0 * c.flops_per_iteration)

    def test_scaled_messages_surface_law(self):
        c = StructuredSpec(16, 16, 16).census()
        s = c.scaled(8.0)
        assert np.allclose(s.neighbor_message_bytes, 4.0 * c.neighbor_message_bytes)

    def test_invalid_factor(self):
        c = StructuredSpec(8, 8, 8).census()
        with pytest.raises(ValueError):
            c.scaled(0.0)


class TestIterationTime:
    def test_single_node_hybrid_has_no_mpi(self):
        c = StructuredSpec(32, 32, 32).census()
        t = estimate_iteration_time(c, EARTH_SIMULATOR, "hybrid", 1)
        assert t.comm_seconds == 0.0
        assert t.openmp_seconds > 0.0

    def test_flat_never_pays_openmp(self):
        c = StructuredSpec(32, 32, 32).census()
        t = estimate_iteration_time(c, EARTH_SIMULATOR, "flat", 4)
        assert t.openmp_seconds == 0.0
        assert t.comm_seconds > 0.0

    def test_work_ratio_bounded(self):
        c = StructuredSpec(32, 32, 32).census()
        for model in ("hybrid", "flat"):
            for nodes in (1, 16, 128):
                t = estimate_iteration_time(c, EARTH_SIMULATOR, model, nodes)
                assert 0.0 < t.work_ratio_percent <= 100.0

    def test_degenerate_census_reports_zero_not_division_error(self):
        """Regression: a census with no phases (or all-zero loop
        lengths) has zero elapsed time; ``work_ratio_percent`` and
        ``gflops_total`` used to raise ZeroDivisionError on it; the
        degenerate case must report 0.0."""
        empty = SolverOpCensus(ndof_node=0, phases=[])
        t = estimate_iteration_time(empty, EARTH_SIMULATOR, "hybrid", 1)
        assert t.total_seconds == 0.0
        assert t.work_ratio_percent == 0.0
        assert t.gflops_total() == 0.0
        # all-zero loop lengths behave identically
        zeros = SolverOpCensus(
            ndof_node=0,
            phases=[VectorWork(np.zeros(3), 2.0)],
        )
        tz = estimate_iteration_time(zeros, EARTH_SIMULATOR, "hybrid", 1)
        assert tz.work_ratio_percent == 0.0
        assert tz.gflops_total() == 0.0

    def test_unknown_model_rejected(self):
        c = StructuredSpec(8, 8, 8).census()
        with pytest.raises(ValueError):
            estimate_iteration_time(c, EARTH_SIMULATOR, "both", 1)


class TestPaperAnchors:
    def test_pdjds_large_problem_near_paper(self):
        """Fig. 15 anchor: ~22.7 GFLOPS at 6.3M DOF on one node."""
        g = estimate_iteration_time(
            StructuredSpec(128, 128, 128, ncolors=99).census(), EARTH_SIMULATOR, "hybrid", 1
        ).gflops_total()
        assert 18.0 < g < 26.0

    def test_gflops_increase_with_problem_size(self):
        gs = [
            estimate_iteration_time(
                StructuredSpec(n, n, n, ncolors=99).census(), EARTH_SIMULATOR, "hybrid", 1
            ).gflops_total()
            for n in (16, 64, 128)
        ]
        assert gs[0] < gs[1] < gs[2]

    def test_hybrid_beats_flat_at_scale_small_problems(self):
        c = StructuredSpec(64, 64, 64, ncolors=99).census()
        hy = estimate_iteration_time(c, EARTH_SIMULATOR, "hybrid", 160).gflops_total()
        fl = estimate_iteration_time(c, EARTH_SIMULATOR, "flat", 160).gflops_total()
        assert hy > fl

    def test_flat_competitive_on_one_node(self):
        c = StructuredSpec(128, 128, 128, ncolors=99).census()
        hy = estimate_iteration_time(c, EARTH_SIMULATOR, "hybrid", 1).gflops_total()
        fl = estimate_iteration_time(c, EARTH_SIMULATOR, "flat", 1).gflops_total()
        assert fl >= 0.95 * hy

    def test_sr2201_much_slower_than_es(self):
        c = StructuredSpec(16, 16, 16, npe=1).census()
        t_es = estimate_iteration_time(c, EARTH_SIMULATOR, "flat", 1)
        t_sr = estimate_iteration_time(c, SR2201, "flat", 1)
        assert t_sr.total_seconds > 5.0 * t_es.total_seconds


class TestMeasuredCensus:
    @pytest.fixture(scope="class")
    def measured(self):
        mesh = simple_block_model(3, 3, 2, 3, 3)
        prob = build_contact_problem(mesh, penalty=1e6)
        m = sb_bic0(prob.a, prob.groups, ncolors=4)
        return prob, m, census_from_factorization(prob.a_bcsr, m, npe=8)

    def test_flops_reasonable(self, measured):
        prob, m, census = measured
        per_node = census.flops_per_iteration / prob.mesh.n_nodes
        assert 300 < per_node < 3000

    def test_barriers_track_schedule(self, measured):
        _, m, census = measured
        assert census.openmp_barriers == 2 * len(m.schedule) + 6

    def test_phases_nonempty(self, measured):
        _, _, census = measured
        assert len(census.phases) == 4
        assert all(p.loop_lengths.size > 0 for p in census.phases)

    def test_estimate_runs(self, measured):
        _, _, census = measured
        t = estimate_iteration_time(census, EARTH_SIMULATOR, "hybrid", 1)
        assert t.total_seconds > 0
