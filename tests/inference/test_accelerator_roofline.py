"""Tests for accelerator configs and the roofline timing model."""

import numpy as np
import pytest

from repro.devices.base import MemoryTier
from repro.devices.catalog import HBM3E, LPDDR5X
from repro.inference.accelerator import (
    A100_80G,
    AcceleratorConfig,
    B200,
    H100_80G,
)
from repro.inference.roofline import Boundedness, RooflineModel
from repro.units import GiB
from repro.workload.model import LLAMA2_70B


class TestAcceleratorConfig:
    def test_presets_sane(self):
        assert B200.peak_flops > H100_80G.peak_flops > A100_80G.peak_flops
        assert B200.tier("hbm").capacity_bytes == 192 * GiB
        assert B200.tier("hbm").read_bandwidth == 8.0e12

    def test_tier_lookup_fails_loud(self):
        with pytest.raises(KeyError, match="mrm"):
            B200.tier("mrm")

    def test_duplicate_tiers_rejected(self):
        tier = MemoryTier("hbm", GiB, 1e12, 1e12, HBM3E)
        with pytest.raises(ValueError, match="duplicate"):
            AcceleratorConfig(name="x", peak_flops=1e15, tiers=(tier, tier))

    def test_with_tiers_swaps(self):
        lpddr = MemoryTier("lpddr", 480 * GiB, 0.5e12, 0.5e12, LPDDR5X)
        modified = B200.with_tiers(B200.tiers + (lpddr,))
        assert set(modified.tier_names) == {"hbm", "lpddr"}
        assert sum(t.capacity_bytes for t in modified.tiers) == (192 + 480) * GiB

    def test_efficiency_bounds(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(
                name="x", peak_flops=1e15, tiers=B200.tiers,
                compute_efficiency=0.0,
            )


class TestRooflineTiming:
    def test_compute_bound_step(self):
        roofline = RooflineModel(B200)
        timing = roofline.time_step(1e18, {"hbm": 1.0})
        assert timing.boundedness is Boundedness.COMPUTE
        assert timing.duration_s == timing.compute_time_s

    def test_memory_bound_step(self):
        roofline = RooflineModel(B200)
        timing = roofline.time_step(1.0, {"hbm": 1e12})
        assert timing.boundedness is Boundedness.MEMORY
        assert timing.compute_time_s < 0.1 * timing.duration_s

    def test_unknown_tier_rejected(self):
        roofline = RooflineModel(B200)
        with pytest.raises(KeyError, match="unknown tiers"):
            roofline.time_step(1.0, {"nvram": 100.0})

    def test_reads_and_writes_share_channel(self):
        roofline = RooflineModel(B200)
        reads_only = roofline.time_step(0.0, {"hbm": 1e12})
        mixed = roofline.time_step(0.0, {"hbm": 1e12}, {"hbm": 1e12})
        assert mixed.memory_time_s == pytest.approx(2 * reads_only.memory_time_s)

    def test_time_steps_equals_time_step_per_lane(self):
        lpddr = MemoryTier("lpddr", 480 * GiB, 0.5e12, 0.07e12, LPDDR5X)
        roofline = RooflineModel(B200.with_tiers(B200.tiers + (lpddr,)))
        rng = np.random.default_rng(5)
        flops = rng.uniform(0.0, 4e15, 64)
        hbm_reads = rng.uniform(0.0, 8e12, 64)
        lpddr_writes = rng.uniform(0.0, 3e10, 64)
        durations, memory_bound = roofline.time_steps(
            flops, {"hbm": hbm_reads, "lpddr": 1.5e11}, {"lpddr": lpddr_writes}
        )
        for i in range(64):
            timing = roofline.time_step(
                float(flops[i]),
                {"hbm": float(hbm_reads[i]), "lpddr": 1.5e11},
                {"lpddr": float(lpddr_writes[i])},
            )
            assert durations[i] == timing.duration_s
            assert memory_bound[i] == (timing.boundedness is Boundedness.MEMORY)
        assert memory_bound.any() and not memory_bound.all()

    def test_time_steps_rejects_bad_input(self):
        roofline = RooflineModel(B200)
        with pytest.raises(KeyError, match="unknown tiers"):
            roofline.time_steps(np.ones(2), {"nvram": 1.0})
        with pytest.raises(ValueError):
            roofline.time_steps(np.array([1.0, -1.0]), {"hbm": 1.0})
        with pytest.raises(ValueError):
            roofline.time_steps(np.ones(2), {"hbm": np.array([1.0, -1.0])})

    def test_tiers_overlap(self):
        lpddr = MemoryTier("lpddr", 480 * GiB, 0.5e12, 0.5e12, LPDDR5X)
        acc = B200.with_tiers(B200.tiers + (lpddr,))
        roofline = RooflineModel(acc)
        # Offloading a sliver to a second tier beats one-tier serialization.
        split = roofline.time_step(0.0, {"hbm": 1e12, "lpddr": 1e10})
        together = roofline.time_step(0.0, {"hbm": 1.01e12})
        assert split.duration_s < together.duration_s
        assert split.bottleneck_tier in ("hbm", "lpddr")


class TestPhaseBoundedness:
    """The paper's E4 claims at the phase level."""

    def test_prefill_is_compute_bound(self):
        roofline = RooflineModel(H100_80G)
        timing = roofline.time_prefill(LLAMA2_70B, prompt_tokens=2048)
        assert timing.boundedness is Boundedness.COMPUTE

    def test_single_decode_is_memory_bound(self):
        roofline = RooflineModel(H100_80G)
        timing = roofline.time_decode_step(LLAMA2_70B, context_tokens=2048)
        assert timing.boundedness is Boundedness.MEMORY

    def test_decode_stays_memory_bound_at_moderate_batch(self):
        roofline = RooflineModel(H100_80G)
        timing = roofline.time_decode_step(
            LLAMA2_70B, context_tokens=2048, batch_size=16
        )
        assert timing.boundedness is Boundedness.MEMORY

    def test_request_memory_bound_fraction_substantial(self):
        """'a substantial part of every inference query is memory
        bound' — decode dominates a conversation-shaped request."""
        roofline = RooflineModel(H100_80G)
        fraction = roofline.memory_bound_fraction_of_request(
            LLAMA2_70B, prompt_tokens=1020, output_tokens=129
        )
        assert fraction > 0.5
