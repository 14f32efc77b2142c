"""Tests for model-swap (deployment) economics."""

import pytest

from repro.inference.deployment import ModelSwapModel, SwapCost
from repro.tiering.tiers import hbm_tier, mrm_tier
from repro.units import DAY, GiB, HOUR
from repro.workload.model import LLAMA2_70B


@pytest.fixture
def swap_model() -> ModelSwapModel:
    return ModelSwapModel(LLAMA2_70B)


@pytest.fixture
def tiers():
    return [hbm_tier(320 * GiB), mrm_tier(512 * GiB)]


class TestSwapCost:
    def test_load_time_is_weights_over_write_bw(self, swap_model, tiers):
        hbm = tiers[0]
        cost = swap_model.swap_cost(hbm, update_interval_s=HOUR)
        assert cost.load_time_s == pytest.approx(
            LLAMA2_70B.weights_bytes / hbm.write_bandwidth
        )

    def test_mrm_loads_slower_than_hbm(self, swap_model, tiers):
        hbm, mrm = tiers
        hbm_cost = swap_model.swap_cost(hbm, HOUR)
        mrm_cost = swap_model.swap_cost(mrm, HOUR)
        assert mrm_cost.load_time_s > hbm_cost.load_time_s

    def test_hourly_swaps_barely_dent_availability(self, swap_model, tiers):
        """The paper's 'conservative hourly update': even on slow-write
        MRM, availability stays ~100%."""
        mrm = tiers[1]
        cost = swap_model.swap_cost(mrm, update_interval_s=HOUR)
        assert cost.availability > 0.995

    def test_extreme_cadence_shows_the_write_trade(self, swap_model, tiers):
        """At the paper's intensive once-per-second bound, the write
        bandwidth MRM traded away finally shows: its availability loss
        is several times HBM's — yet both remain serviceable, and the
        loss vanishes at realistic (hourly) cadences."""
        hbm, mrm = tiers
        hbm_cost = swap_model.swap_cost(hbm, update_interval_s=1.0)
        mrm_cost = swap_model.swap_cost(mrm, update_interval_s=1.0)
        assert mrm_cost.availability < hbm_cost.availability
        assert (1 - mrm_cost.availability) > 3 * (1 - hbm_cost.availability)

    def test_availability_monotone_in_interval(self, swap_model, tiers):
        mrm = tiers[1]
        values = [
            swap_model.swap_cost(mrm, interval).availability
            for interval in (60.0, HOUR, DAY)
        ]
        assert values == sorted(values)

    def test_validation(self, swap_model, tiers):
        with pytest.raises(ValueError):
            swap_model.swap_cost(tiers[0], update_interval_s=0.0)
        with pytest.raises(ValueError):
            ModelSwapModel(LLAMA2_70B, mean_outstanding_decode_s=-1.0)


class TestEnduranceBudget:
    def test_hourly_swaps_within_mrm_endurance(self, swap_model, tiers):
        """Figure 1's weights bar, from the device side: 5 years of
        hourly swaps consume a negligible fraction of relaxed-retention
        endurance."""
        mrm = tiers[1]
        consumed = swap_model.endurance_consumed(mrm, update_interval_s=HOUR)
        assert consumed < 1e-3

    def test_cadence_scales_consumption(self, swap_model, tiers):
        mrm = tiers[1]
        hourly = swap_model.endurance_consumed(mrm, HOUR)
        daily = swap_model.endurance_consumed(mrm, DAY)
        assert hourly == pytest.approx(24 * daily)
