"""End-to-end integration: the paper's headline comparisons run small.

Each test is a miniature of a benchmark harness, asserting the *shape*
(who wins, direction of effects) rather than absolute numbers — the
reproduction contract in DESIGN.md.
"""

import pytest

from repro.core.dcm import (
    FixedRetentionPolicy,
    LifetimeMatchedPolicy,
    evaluate_policy,
)
from repro.core.mrm import MRMConfig, MRMDevice
from repro.core.placement import kv_cache_object
from repro.devices.dram import DRAMDevice
from repro.devices.flash import FlashDevice
from repro.endurance.lifetime import device_lifetime_s
from repro.endurance.requirements import MACHINE_HBM_BYTES, MIXED_TOKENS_PER_S
from repro.inference.accelerator import H100_80G
from repro.inference.cluster import Cluster, tensor_parallel_group
from repro.sim import Simulator
from repro.units import DAY, GiB, HOUR, MINUTE, MiB, YEAR
from repro.workload.model import LLAMA2_70B
from repro.workload.traces import generate_trace, replay_trace


class TestHousekeepingComparison:
    """E6: matched retention eliminates housekeeping energy."""

    def test_dram_pays_refresh_mrm_does_not(self):
        duration = HOUR
        dram = DRAMDevice(capacity_bytes=16 * GiB)
        mrm = MRMDevice(
            MRMConfig(capacity_bytes=16 * GiB)
        )
        dram_refresh = dram.accrue_refresh_energy(duration)
        mrm_refresh = mrm.accrue_refresh_energy(duration)
        assert dram_refresh > 0
        assert mrm_refresh == 0.0

    def test_flash_pays_write_amplification_mrm_does_not(self):
        """Random-overwrite churn amplifies Flash writes; the same churn
        expressed as MRM write-expire-reset copies nothing."""
        import random

        rnd = random.Random(0)
        flash = FlashDevice(capacity_bytes=64 * MiB, overprovision=0.1)
        page = flash.page_bytes
        pages = flash.logical_capacity_bytes // page
        for lpn in range(pages):
            flash.write(lpn * page, page)
        for _ in range(3000):
            flash.write(rnd.randrange(pages) * page, page)
        assert flash.write_amplification() > 1.05

        from repro.core.controller import MRMController

        mrm = MRMDevice(
            MRMConfig(capacity_bytes=64 * MiB, block_bytes=MiB,
                      blocks_per_zone=8, min_retention_s=1.0)
        )
        controller = MRMController(mrm)
        now = 0.0
        host_bytes = 0
        for _round in range(40):
            blocks = controller.write(8 * MiB, 10.0, now=now)
            host_bytes += 8 * MiB
            now += 60.0
            controller.tick(now=now)
        assert mrm.counters.bytes_written == host_bytes  # WA exactly 1.0


class TestFlashInadequacy:
    """E12: SLC Flash burns out under the KV write stream in months."""

    def test_flash_lifetime_under_kv_stream(self):
        kv_rate = MIXED_TOKENS_PER_S * LLAMA2_70B.kv_bytes_per_token
        from repro.devices.catalog import NAND_SLC

        lifetime = device_lifetime_s(
            NAND_SLC,
            capacity_bytes=MACHINE_HBM_BYTES,
            write_rate_bytes_per_s=kv_rate,
        )
        assert lifetime < 5 * YEAR  # cannot survive the deployment

    def test_mrm_survives_where_flash_does_not(self):
        kv_rate = MIXED_TOKENS_PER_S * LLAMA2_70B.kv_bytes_per_token
        mrm = MRMDevice(MRMConfig(capacity_bytes=32 * GiB))
        profile = mrm.retention_model.profile_at(HOUR)
        lifetime = device_lifetime_s(
            profile,
            capacity_bytes=MACHINE_HBM_BYTES,
            write_rate_bytes_per_s=kv_rate,
        )
        assert lifetime > 5 * YEAR


class TestDCMWins:
    """E8: right-provisioned retention beats fixed retention."""

    def test_dcm_beats_scm_style_fixed_retention(self):
        device = MRMDevice(MRMConfig(capacity_bytes=GiB, block_bytes=MiB,
                                     blocks_per_zone=8))
        objects = [
            kv_cache_object(16 * MiB, 1e9, 1e6,
                            context_lifetime_s=10 * MINUTE)
            for _ in range(50)
        ]
        scm_like = evaluate_policy(
            FixedRetentionPolicy(30 * DAY), objects, device
        )
        dcm = evaluate_policy(LifetimeMatchedPolicy(), objects, device)
        assert dcm.total_energy_j < 0.8 * scm_like.total_energy_j
        assert dcm.damage_fraction < 0.01 * scm_like.damage_fraction


class TestTieredServing:
    """E10 (small): weights on a fast MRM tier relieve the HBM
    bottleneck for decode."""

    def make_cluster(self, placement, tiers=None):
        sim = Simulator()
        acc = tensor_parallel_group(H100_80G, 4)
        if tiers is not None:
            acc = acc.with_tiers(tiers)
        cluster = Cluster(
            sim, acc, LLAMA2_70B, num_engines=1, placement=placement,
            max_batch_size=8,
        )
        trace = generate_trace(LLAMA2_70B, duration_s=10.0, seed=13)
        report = cluster.run(replay_trace(trace))
        return report

    def test_mrm_weights_tier_increases_throughput(self):
        from repro.tiering.tiers import copackaged_mrm_tier

        baseline = self.make_cluster(placement=None)

        hbm = tensor_parallel_group(H100_80G, 4).tier("hbm")
        hybrid = self.make_cluster(
            placement={"weights": "mrm"},
            tiers=(hbm, copackaged_mrm_tier(hbm, 512 * GiB)),
        )
        # Weights move off HBM: decode overlaps weight and KV streams.
        assert (
            hybrid.throughput_tokens_per_s > baseline.throughput_tokens_per_s
        )
        assert hybrid.tbt_p50_s < baseline.tbt_p50_s
