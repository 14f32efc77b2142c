"""Tests for the Figure 1 endurance arithmetic."""

import pytest

from repro.endurance.requirements import (
    DECODE_TOKENS_PER_S,
    MIXED_TOKENS_PER_S,
    PREFILL_TOKENS_PER_S,
    check_figure1_shape,
    figure1_data,
    kv_cache_requirement,
    weight_update_requirement,
)
from repro.units import GiB, HOUR, YEAR
from repro.workload.model import LLAMA2_70B, LLAMA2_70B_MHA


class TestWeightRequirement:
    def test_hourly_updates_5_years(self):
        req = weight_update_requirement(HOUR, 5 * YEAR)
        assert req.writes_per_cell == pytest.approx(5 * 365.25 * 24, rel=1e-6)

    def test_per_second_updates(self):
        req = weight_update_requirement(1.0, 5 * YEAR)
        assert req.writes_per_cell == pytest.approx(1.578e8, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            weight_update_requirement(0.0)


class TestKVRequirement:
    def test_default_calibration_in_expected_decade(self):
        """The central estimate should land around 1e5-1e6 writes/cell —
        above shipped RRAM/SLC endurance, within technology reach."""
        req = kv_cache_requirement()
        assert 1e5 < req.writes_per_cell < 1e7

    def test_scales_linearly_with_token_rate(self):
        slow = kv_cache_requirement(token_rate_per_s=100.0,
                                    capacity_bytes=512 * GiB)
        fast = kv_cache_requirement(token_rate_per_s=200.0,
                                    capacity_bytes=512 * GiB)
        assert fast.writes_per_cell == pytest.approx(2 * slow.writes_per_cell)

    def test_inverse_in_capacity(self):
        small = kv_cache_requirement(token_rate_per_s=100.0,
                                     capacity_bytes=256 * GiB)
        large = kv_cache_requirement(token_rate_per_s=100.0,
                                     capacity_bytes=512 * GiB)
        assert small.writes_per_cell == pytest.approx(2 * large.writes_per_cell)

    def test_mha_model_writes_more(self):
        gqa = kv_cache_requirement(model=LLAMA2_70B)
        mha = kv_cache_requirement(model=LLAMA2_70B_MHA)
        assert mha.writes_per_cell > gqa.writes_per_cell

    def test_detail_mentions_inputs(self):
        req = kv_cache_requirement()
        assert "tok/s" in req.detail and "GiB" in req.detail


class TestCalibration:
    def test_mixed_rate_between_phases(self):
        assert DECODE_TOKENS_PER_S < MIXED_TOKENS_PER_S < PREFILL_TOKENS_PER_S


class TestFigure1:
    def test_data_structure_complete(self):
        data = figure1_data()
        names = [r.name for r in data["requirements"]]
        assert names == ["weights (hourly)", "weights (every 1s)", "KV cache"]
        assert set(data["products"]) >= {
            "HBM / DRAM", "PCM (Intel Optane)", "RRAM (Weebit)",
            "STT-MRAM (Everspin)",
        }
        kv_low, kv_high = data["kv_range"]
        assert kv_low.writes_per_cell < kv_high.writes_per_cell

    def test_paper_observation_1_hbm_overprovisioned(self):
        """'HBM is vastly overprovisioned on endurance'."""
        assert check_figure1_shape()["hbm_overprovisioned"]

    def test_paper_observation_2_products_vs_potential(self):
        """'existing SCM devices do not meet the endurance requirements
        but the underlying technologies have the potential to do so'."""
        shape = check_figure1_shape()
        assert shape["products_insufficient"]
        assert shape["potential_sufficient"]

    def test_requirements_orders_of_magnitude_below_dram(self):
        data = figure1_data()
        top = max(r.writes_per_cell for r in data["requirements"])
        assert data["products"]["HBM / DRAM"] / top > 1e6
