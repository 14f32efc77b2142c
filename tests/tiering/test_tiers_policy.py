"""Tests for memory tiers and placement policies."""

import pytest

from repro.core.placement import (
    DataKind,
    activations_object,
    kv_cache_object,
    weights_object,
)
from repro.tiering.policy import (
    AllHBMPolicy,
    CostGreedyPolicy,
    KindBasedPolicy,
    LifetimeAwarePolicy,
    Placement,
    PlacementError,
)
from repro.devices.catalog import HBM3E, LPDDR5X, NAND_SLC
from repro.tiering.tiers import (
    MRM_COST_DISCOUNT_VS_HBM,
    MRM_PROFILE,
    MRM_TIER_RETENTION_S,
    flash_tier,
    hbm_tier,
    lpddr_tier,
    mrm_tier,
)
from repro.units import DAY, GiB, HOUR


def workload_objects(model_bytes=100 * GiB, kv_count=4):
    objects = [
        weights_object(model_bytes, read_bytes_per_s=4e12, name="weights"),
        activations_object(2 * GiB, bandwidth_bytes_per_s=1e12,
                           name="activations"),
    ]
    for i in range(kv_count):
        objects.append(
            kv_cache_object(
                20 * GiB, read_bytes_per_s=5e11, append_bytes_per_s=3e6,
                context_lifetime_s=HOUR, name=f"kv-{i}",
            )
        )
    return objects


def standard_tiers():
    return [
        hbm_tier(192 * GiB),
        mrm_tier(512 * GiB),
        lpddr_tier(512 * GiB),
    ]


class TestTierBuilders:
    def test_hbm_tier_properties(self):
        tier = hbm_tier(192 * GiB)
        assert tier.name == "hbm"
        assert tier.profile.volatile
        assert tier.refresh_power_w() > 0
        assert not tier.supports_managed_retention

    def test_mrm_tier_derived_from_retention_model(self):
        tier = mrm_tier(512 * GiB)
        assert tier.supports_managed_retention
        assert tier.profile.retention_s == MRM_TIER_RETENTION_S == 6 * HOUR
        assert tier.refresh_power_w() == 0.0

    def test_mrm_cheaper_per_gib_than_hbm(self):
        hbm = hbm_tier(192 * GiB)
        mrm = mrm_tier(192 * GiB)
        assert mrm.cost_usd < hbm.cost_usd

    def test_lpddr_and_flash(self):
        assert lpddr_tier(512 * GiB).profile.volatile
        assert not flash_tier(1024 * GiB).profile.volatile

    def test_validation(self):
        with pytest.raises(ValueError):
            hbm_tier(0)

    def test_one_mrm_point(self):
        """The cluster pool, the fleet's co-packaged tier and E12 share
        one MRM profile, and every builder's derived cost equals its
        capacity times the $/GiB it prices the technology at."""
        from benchmarks import bench_e12_flash
        from repro.fleet.autoscaler import apply_memory_config
        from repro.inference.accelerator import H100_80G

        accelerator, _placement = apply_memory_config(H100_80G, "mrm")
        assert mrm_tier(512 * GiB).profile is MRM_PROFILE
        assert accelerator.tier("mrm").profile is MRM_PROFILE
        assert bench_e12_flash.MRM_PROFILE is MRM_PROFILE
        assert MRM_PROFILE.name == "mrm@6h"
        for gib in (1, 7, 24, 192, 320, 512, 768, 832, 1024, 4096):
            c = gib * GiB
            hbm_cost = (c / GiB) * HBM3E.cost_usd_per_gib
            assert hbm_tier(c).cost_usd == hbm_cost
            assert mrm_tier(c).cost_usd == hbm_cost * MRM_COST_DISCOUNT_VS_HBM
            assert lpddr_tier(c).cost_usd == (c / GiB) * LPDDR5X.cost_usd_per_gib
            assert flash_tier(c).cost_usd == (c / GiB) * NAND_SLC.cost_usd_per_gib


class TestPlacementAccounting:
    def test_assign_and_query(self):
        tiers = standard_tiers()
        placement = Placement(tuple(tiers))
        obj = workload_objects()[0]
        placement.assign(obj, tiers[0])
        assert placement.tier_of(obj).name == "hbm"
        assert placement.used_bytes("hbm") == obj.size_bytes

    def test_capacity_enforced(self):
        tiers = [hbm_tier(10 * GiB)]
        placement = Placement(tuple(tiers))
        obj = workload_objects(model_bytes=20 * GiB)[0]
        with pytest.raises(PlacementError):
            placement.assign(obj, tiers[0])

    def test_bandwidth_demand_and_bottleneck(self):
        tiers = standard_tiers()
        placement = AllHBMPolicy().place(workload_objects(), tiers)
        name, util = placement.bottleneck()
        assert name == "hbm"
        assert util > 0

    def test_unplaced_object_query_fails(self):
        placement = Placement(tuple(standard_tiers()))
        with pytest.raises(KeyError):
            placement.tier_of(workload_objects()[0])


class TestPolicies:
    def test_all_hbm_puts_everything_on_hbm(self):
        objects = workload_objects(model_bytes=50 * GiB, kv_count=2)
        placement = AllHBMPolicy().place(objects, standard_tiers())
        for obj in objects:
            assert placement.tier_of(obj).name == "hbm"

    def test_all_hbm_overflows_when_full(self):
        objects = workload_objects(model_bytes=150 * GiB, kv_count=4)
        placement = AllHBMPolicy().place(objects, standard_tiers())
        names = {placement.tier_of(o).name for o in objects}
        assert "hbm" in names and len(names) > 1

    def test_all_hbm_requires_hbm(self):
        with pytest.raises(PlacementError):
            AllHBMPolicy().place(workload_objects(), [lpddr_tier(GiB)])

    def test_kind_based_layout(self):
        """The Section-4 sketch: weights+KV on MRM, activations on HBM."""
        objects = workload_objects()
        placement = KindBasedPolicy().place(objects, standard_tiers())
        for obj in objects:
            if obj.kind in (DataKind.WEIGHTS, DataKind.KV_CACHE):
                assert placement.tier_of(obj).name == "mrm", obj.name
            else:
                assert placement.tier_of(obj).name == "hbm", obj.name

    def test_lifetime_aware_matches_kind_based_on_inference(self):
        """The general rule should reproduce the static layout for the
        three inference structures."""
        objects = workload_objects()
        by_kind = KindBasedPolicy().place(objects, standard_tiers())
        by_lifetime = LifetimeAwarePolicy().place(objects, standard_tiers())
        for obj in objects:
            assert (
                by_lifetime.tier_of(obj).name == by_kind.tier_of(obj).name
            ), obj.name

    def test_lifetime_aware_keeps_ephemeral_on_hbm(self):
        objects = [activations_object(GiB, 1e12)]
        placement = LifetimeAwarePolicy().place(objects, standard_tiers())
        assert placement.tier_of(objects[0]).name == "hbm"

    def test_lifetime_aware_demotes_cold_data(self):
        cold = kv_cache_object(
            10 * GiB, read_bytes_per_s=1e6, append_bytes_per_s=1e3,
            context_lifetime_s=DAY, name="idle-kv",
        )
        placement = LifetimeAwarePolicy().place([cold], standard_tiers())
        assert placement.tier_of(cold).name == "lpddr"

    def test_cost_greedy_fills_fast_tiers_with_hot_bytes(self):
        objects = workload_objects()
        placement = CostGreedyPolicy().place(objects, standard_tiers())
        activations = next(
            o for o in objects if o.kind is DataKind.ACTIVATIONS
        )
        # Activations have the highest read-rate density -> fastest tier.
        fastest = max(
            standard_tiers(), key=lambda t: t.read_bandwidth / t.capacity_bytes
        )
        assert placement.tier_of(activations).name == fastest.name

    def test_nothing_fits_raises(self):
        tiny = [hbm_tier(1 * GiB)]
        with pytest.raises(PlacementError):
            AllHBMPolicy().place(workload_objects(), tiny)


class TestPlacementEconomics:
    def test_mrm_layout_cuts_refresh_power(self):
        """Moving data off DRAM tiers cannot raise refresh power, and an
        MRM-heavy tier set refreshes less than an HBM-only set of the
        same capacity."""
        hbm_only = [hbm_tier(704 * GiB)]
        hybrid = standard_tiers()  # 192 HBM + 512 MRM + 512 LPDDR
        hbm_only_power = sum(t.refresh_power_w() for t in hbm_only)
        hybrid_hbm_power = hbm_tier(192 * GiB).refresh_power_w()
        assert hybrid_hbm_power < hbm_only_power

    def test_hardware_cost_favors_hybrid(self):
        objects = workload_objects()
        hybrid = KindBasedPolicy().place(objects, standard_tiers())
        all_hbm = AllHBMPolicy().place(
            objects, [hbm_tier(704 * GiB)]
        )
        assert sum(t.cost_usd for t in hybrid.tiers) < sum(
            t.cost_usd for t in all_hbm.tiers
        )
