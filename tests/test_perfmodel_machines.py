"""Machine-model constants and invariants (calibration regression tests)."""

import numpy as np
import pytest

from repro.perfmodel import EARTH_SIMULATOR, SR2201
from repro.perfmodel.machines import Interconnect, MachineModel, VectorPipeline


class TestEarthSimulatorConstants:
    def test_advertised_peak(self):
        """8 GFLOPS per PE, 8 PEs per node, 64 GFLOPS per node (section 1.2)."""
        assert EARTH_SIMULATOR.pe.peak_flops == 8.0e9
        assert EARTH_SIMULATOR.pe_per_node == 8
        assert EARTH_SIMULATOR.pe.peak_flops * EARTH_SIMULATOR.pe_per_node == 64.0e9

    def test_sustained_below_peak(self):
        assert EARTH_SIMULATOR.pe.r_inf < EARTH_SIMULATOR.pe.peak_flops

    def test_scalar_anchor(self):
        """CRS-without-reordering anchor: 8 scalar PEs ~ 0.30 GFLOPS/node."""
        node_scalar = 8 * EARTH_SIMULATOR.pe.scalar_flops
        assert 0.25e9 < node_scalar < 0.35e9

    def test_long_loop_anchor(self):
        """Fig. 15 anchor: vector length ~2,650 sustains ~2.84 GF/PE."""
        r = EARTH_SIMULATOR.pe.rate(2650.0)
        assert 2.5e9 < r < 3.1e9

    def test_half_length_semantics(self):
        pe = EARTH_SIMULATOR.pe
        assert np.isclose(pe.rate(pe.n_half), pe.r_inf / 2.0)


class TestSR2201Constants:
    def test_peak(self):
        """300 MFLOPS per PE (section 2.2: 1024 PEs = 300 GFLOPS peak)."""
        assert SR2201.pe.peak_flops == 0.3e9
        assert SR2201.pe_per_node == 1

    def test_sustained_fraction_matches_paper(self):
        """Paper: 68.7 GFLOPS on 1024 PEs = ~23% of peak; the model's
        long-loop sustained rate must sit in that neighbourhood."""
        frac = SR2201.pe.rate(10000.0) / SR2201.pe.peak_flops
        assert 0.15 < frac < 0.35


class TestModelInvariants:
    @pytest.mark.parametrize("machine", [EARTH_SIMULATOR, SR2201], ids=["ES", "SR2201"])
    def test_rate_monotone(self, machine):
        lens = np.array([1.0, 10.0, 100.0, 1000.0, 100000.0])
        rates = [machine.pe.rate(l) for l in lens]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("machine", [EARTH_SIMULATOR, SR2201], ids=["ES", "SR2201"])
    def test_interconnect_positive(self, machine):
        for ic in (machine.inter_node, machine.intra_node):
            assert ic.latency_seconds > 0
            assert ic.bandwidth_bytes > 0

    def test_intra_node_faster_than_inter_node(self):
        assert (
            EARTH_SIMULATOR.intra_node.latency_seconds
            < EARTH_SIMULATOR.inter_node.latency_seconds
        )

    def test_custom_machine_composes(self):
        m = MachineModel(
            name="toy",
            pe=VectorPipeline(1e9, 0.5e9, 50.0, 0.01e9, 1e-6),
            pe_per_node=4,
            inter_node=Interconnect(1e-5, 1e9, 1e-5),
            intra_node=Interconnect(1e-6, 1e10, 1e-6),
            openmp_sync_seconds=1e-6,
        )
        assert m.pe.peak_flops * m.pe_per_node == 4e9
        assert m.pe.rate(50.0) == 0.25e9
