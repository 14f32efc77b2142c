"""Tests for power-aware (DVFS, power-capped) serving."""

import pytest

from repro.inference.accelerator import H100_80G
from repro.inference.cluster import tensor_parallel_group
from repro.inference.power import (
    OperatingPoint,
    PowerModel,
    best_frequency_under_cap,
)
from repro.tiering.tiers import hbm_tier, mrm_tier
from repro.units import GiB
from repro.workload.model import LLAMA2_70B


@pytest.fixture(scope="module")
def power_model() -> PowerModel:
    return PowerModel(tensor_parallel_group(H100_80G, 4))


class TestPowerModel:
    def test_idle_floor(self, power_model):
        idle = power_model.compute_power_w(utilization=0.0)
        board = power_model.accelerator.board_power_w
        assert idle == pytest.approx(board * 0.25)

    def test_full_power_at_peak(self, power_model):
        full = power_model.compute_power_w(utilization=1.0, frequency=1.0)
        assert full == pytest.approx(power_model.accelerator.board_power_w)

    def test_dvfs_saves_superlinearly(self, power_model):
        full = power_model.compute_power_w(1.0, frequency=1.0)
        half = power_model.compute_power_w(1.0, frequency=0.5)
        idle = power_model.compute_power_w(0.0)
        assert (half - idle) < 0.25 * (full - idle)  # f^2.5 < f^2

    def test_memory_power_includes_refresh(self, power_model):
        hbm = hbm_tier(320 * GiB)
        idle_power = power_model.memory_power_w([hbm], [0.0], [0.0])
        assert idle_power == pytest.approx(hbm.refresh_power_w())

    def test_mrm_idle_memory_power_zero(self, power_model):
        mrm = mrm_tier(320 * GiB)
        assert power_model.memory_power_w([mrm], [0.0], [0.0]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerModel(H100_80G, idle_fraction=1.0)
        model = PowerModel(H100_80G)
        with pytest.raises(ValueError):
            model.compute_power_w(1.5)
        with pytest.raises(ValueError):
            model.compute_power_w(0.5, frequency=0.0)
        with pytest.raises(ValueError):
            model.memory_power_w([hbm_tier(GiB)], [], [])


class TestPowerCappedServing:
    def test_unconstrained_cap_runs_full_speed(self, power_model):
        point = best_frequency_under_cap(
            power_model, LLAMA2_70B, [hbm_tier(320 * GiB)], cap_w=1e9
        )
        assert point is not None
        assert point.frequency == 1.0

    def test_tight_cap_clocks_down(self, power_model):
        generous = best_frequency_under_cap(
            power_model, LLAMA2_70B, [hbm_tier(320 * GiB)], cap_w=1e9
        )
        tight = best_frequency_under_cap(
            power_model, LLAMA2_70B, [hbm_tier(320 * GiB)],
            cap_w=generous.total_power_w - 10.0,
        )
        assert tight is not None
        assert tight.frequency < 1.0
        # And because decode is memory-bound, throughput barely moves.
        assert tight.tokens_per_s > 0.95 * generous.tokens_per_s

    def test_memory_bound_decode_tolerates_downclock(self, power_model):
        """The TAPAS insight: decode is memory-bound, so halving the
        clock costs almost no throughput."""
        full = best_frequency_under_cap(
            power_model, LLAMA2_70B, [hbm_tier(320 * GiB)], cap_w=1e9,
            frequencies=[1.0],
        )
        half = best_frequency_under_cap(
            power_model, LLAMA2_70B, [hbm_tier(320 * GiB)], cap_w=1e9,
            frequencies=[0.5],
        )
        assert half.tokens_per_s > 0.9 * full.tokens_per_s
        assert half.total_power_w < full.total_power_w

    def test_impossible_cap_returns_none(self, power_model):
        point = best_frequency_under_cap(
            power_model, LLAMA2_70B, [hbm_tier(320 * GiB)], cap_w=10.0
        )
        assert point is None

    def test_cap_validation(self, power_model):
        with pytest.raises(ValueError):
            best_frequency_under_cap(
                power_model, LLAMA2_70B, [hbm_tier(GiB)], cap_w=0.0
            )

    def test_tokens_per_joule_improves_under_cap(self, power_model):
        """Clocking down raises efficiency even as throughput dips."""
        full = best_frequency_under_cap(
            power_model, LLAMA2_70B, [hbm_tier(320 * GiB)], cap_w=1e9,
            frequencies=[1.0],
        )
        capped = best_frequency_under_cap(
            power_model, LLAMA2_70B, [hbm_tier(320 * GiB)],
            cap_w=full.total_power_w * 0.95,
        )
        assert capped is not None
        assert (
            capped.tokens_per_s / capped.total_power_w
            > full.tokens_per_s / full.total_power_w
        )
