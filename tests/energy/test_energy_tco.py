"""Tests for energy breakdowns and TCO modeling."""

import pytest

from repro.energy.model import accelerator_energy_split, memory_energy
from repro.energy.tco import tco_report
from repro.tiering.tiers import hbm_tier, lpddr_tier, mrm_tier
from repro.units import GiB, HOUR, KWH, YEAR


class TestMemoryEnergy:
    def test_hbm_refreshes_even_when_idle(self):
        """E3's core asymmetry: zero traffic, nonzero refresh energy."""
        tier = hbm_tier(192 * GiB)
        breakdown = memory_energy(tier, duration_s=HOUR,
                                  bytes_read=0, bytes_written=0)
        assert breakdown.refresh_j > 0
        assert breakdown.access_read_j == breakdown.access_write_j == 0.0

    def test_mrm_idle_is_nearly_free(self):
        tier = mrm_tier(192 * GiB)
        breakdown = memory_energy(tier, duration_s=HOUR,
                                  bytes_read=0, bytes_written=0)
        assert breakdown.refresh_j == 0.0

    def test_access_energy_proportional_to_bytes(self):
        tier = hbm_tier(192 * GiB)
        one = memory_energy(tier, 1.0, bytes_read=1e9, bytes_written=0)
        two = memory_energy(tier, 1.0, bytes_read=2e9, bytes_written=0)
        assert two.access_read_j == pytest.approx(2 * one.access_read_j)

    def test_mean_power(self):
        tier = hbm_tier(192 * GiB)
        breakdown = memory_energy(tier, duration_s=10.0,
                                  bytes_read=1e9, bytes_written=0)
        assert breakdown.mean_power_w == pytest.approx(breakdown.total_j / 10.0)

    def test_occupancy_scales_refresh(self):
        tier = hbm_tier(192 * GiB)
        full = memory_energy(tier, 1.0, 0, 0, occupancy=1.0)
        half = memory_energy(tier, 1.0, 0, 0, occupancy=0.5)
        assert half.refresh_j == pytest.approx(full.refresh_j / 2)

    def test_validation(self):
        tier = hbm_tier(GiB)
        with pytest.raises(ValueError):
            memory_energy(tier, -1.0, 0, 0)
        with pytest.raises(ValueError):
            memory_energy(tier, 1.0, 0, 0, occupancy=2.0)


class TestAcceleratorSplit:
    def test_memory_fraction(self):
        tier = hbm_tier(192 * GiB)
        memory = {"hbm": memory_energy(tier, HOUR, 1e15, 1e12)}
        split = accelerator_energy_split(
            memory, compute_power_w=700.0, duration_s=HOUR
        )
        assert 0.0 < split.memory_fraction < 1.0
        assert split.total_j == split.compute_j + split.memory_j

    def test_paper_one_third_claim_reachable(self):
        """At serving-like traffic, memory should be a substantial
        (~quarter-to-half) share of package energy (Section 2.1)."""
        tier = hbm_tier(192 * GiB)
        read_rate = 6.4e12  # 80% of 8 TB/s
        memory = {
            "hbm": memory_energy(tier, 1.0, bytes_read=read_rate,
                                 bytes_written=read_rate / 1000.0)
        }
        split = accelerator_energy_split(
            memory, compute_power_w=700.0, duration_s=1.0
        )
        assert 0.2 < split.memory_fraction < 0.55


class TestTCO:
    def test_report_totals(self):
        report = tco_report(
            name="baseline",
            num_accelerators=8,
            tiers=[hbm_tier(8 * 192 * GiB)],
            mean_power_w=8000.0,
            tokens_per_s=1000.0,
        )
        assert report.capex_accelerators_usd == 200_000.0
        assert report.capex_memory_usd > 0
        expected_opex = 8000.0 * 1.2 * 5 * YEAR / KWH * 0.08
        assert report.opex_energy_usd == pytest.approx(expected_opex)
        assert report.tokens_served == pytest.approx(1000.0 * 5 * YEAR)
        assert report.tokens_per_dollar > 0
        assert report.cost_per_million_tokens > 0

    def test_cheaper_memory_raises_tokens_per_dollar(self):
        same = dict(num_accelerators=8, mean_power_w=8000.0, tokens_per_s=1000.0)
        hbm_only = tco_report("hbm", tiers=[hbm_tier(704 * GiB)], **same)
        hybrid = tco_report(
            "hybrid",
            tiers=[hbm_tier(192 * GiB), mrm_tier(512 * GiB)],
            **same,
        )
        assert hybrid.tokens_per_dollar > hbm_only.tokens_per_dollar

    def test_validation(self):
        with pytest.raises(ValueError):
            tco_report("x", 0, [hbm_tier(GiB)], 100.0, 1.0)
