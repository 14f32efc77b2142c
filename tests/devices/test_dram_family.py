"""Tests for the DRAM and HBM models and the LPDDR catalog profile."""

import pytest

from repro.devices.catalog import DDR5, HBM3E, LPDDR5X
from repro.devices.dram import DRAMDevice
from repro.devices.hbm import HBM_ROADMAP, HBMGeneration, HBMStack
from repro.units import GiB


class TestDRAMDevice:
    def test_requires_volatile_profile(self):
        from repro.devices.catalog import NAND_SLC

        with pytest.raises(ValueError, match="volatile"):
            DRAMDevice(profile=NAND_SLC)

    def test_refresh_interval_halves_when_hot(self):
        cool = DRAMDevice(capacity_bytes=GiB, temperature_c=55.0)
        hot = DRAMDevice(capacity_bytes=GiB, temperature_c=95.0)
        assert hot.effective_refresh_interval_s == pytest.approx(
            cool.effective_refresh_interval_s / 2
        )

    def test_refresh_energy_doubles_when_hot(self):
        cool = DRAMDevice(capacity_bytes=GiB, temperature_c=55.0)
        hot = DRAMDevice(capacity_bytes=GiB, temperature_c=95.0)
        assert hot.accrue_refresh_energy(1.0) == pytest.approx(
            2 * cool.accrue_refresh_energy(1.0)
        )

    def test_refresh_power_positive_even_idle(self):
        """The paper's point: DRAM burns refresh power with zero traffic."""
        dev = DRAMDevice(capacity_bytes=16 * GiB)
        assert dev.refresh_power_w() > 0
        assert dev.counters.bytes_read == 0

    def test_refresh_bandwidth_tax_bounded(self):
        dev = DRAMDevice(capacity_bytes=GiB, temperature_c=95.0)
        assert 0.0 < dev.refresh_bandwidth_tax() <= 1.0

    def test_occupancy_validation(self):
        dev = DRAMDevice(capacity_bytes=GiB)
        with pytest.raises(ValueError):
            dev.accrue_refresh_energy(1.0, occupancy=1.5)


class TestHBMStack:
    def test_capacity_scales_with_layers(self):
        assert HBMStack(layers=8).capacity_bytes == 8 * 3 * GiB
        assert HBMStack(layers=12).capacity_bytes == 12 * 3 * GiB

    def test_yield_decays_with_layers(self):
        yields = [HBMStack(layers=n).stack_yield() for n in (4, 8, 12, 16)]
        assert all(a > b for a, b in zip(yields, yields[1:]))

    def test_cost_multiplier_grows_with_layers(self):
        costs = [
            HBMStack(layers=n).cost_multiplier_vs_planar() for n in (4, 8, 12, 16)
        ]
        assert all(a < b for a, b in zip(costs, costs[1:]))
        assert costs[0] > 1.0  # always above planar

    def test_runs_hot_by_default(self):
        """In-package HBM refreshes at the derated (2x) rate."""
        stack = HBMStack(layers=8)
        assert stack.effective_refresh_interval_s == pytest.approx(
            HBM3E.refresh_interval_s / 2
        )

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            HBMStack(layers=0)

    def test_roadmap_capacity_monotone(self):
        caps = [g.max_stack_capacity() for g in HBM_ROADMAP]
        assert caps == sorted(caps)

    def test_hbm4_layer_step_is_about_30_percent(self):
        """The paper: HBM4 capacity/layer is ~+30% over HBM3e [50]."""
        hbm3e = next(g for g in HBM_ROADMAP if g.name == "hbm3e")
        hbm4 = next(g for g in HBM_ROADMAP if g.name == "hbm4")
        step = hbm4.capacity_per_layer_bytes / hbm3e.capacity_per_layer_bytes
        assert 1.25 <= step <= 1.40

    def test_roadmap_stops_at_16_layers(self):
        assert max(g.max_layers for g in HBM_ROADMAP) <= 16

    def test_stacks_needed(self):
        gen = HBMGeneration("x", capacity_per_layer_bytes=4 * GiB, max_layers=16,
                            bandwidth_per_stack=1e12)
        assert HBMStack.stacks_needed(64 * GiB, gen) == 1
        assert HBMStack.stacks_needed(65 * GiB, gen) == 2
        with pytest.raises(ValueError):
            HBMStack.stacks_needed(0, gen)

    def test_heat_flux_grows_with_stacking(self):
        assert HBMStack(layers=16).heat_flux_w_per_cm2() > HBMStack(
            layers=4
        ).heat_flux_w_per_cm2()


class TestLPDDR:
    def test_lpddr_cheaper_energy_than_ddr(self):
        assert LPDDR5X.read_energy_j_per_byte < DDR5.read_energy_j_per_byte
