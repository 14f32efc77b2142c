"""Scenario tests for the tier manager, asserted through its metrics.

Each scenario drives :class:`TierManager` with an observability
registry attached and asserts on the *metrics* it emitted — the
counters are the specification here, and they must agree with the
legacy ``stats`` dataclass at every step.
"""

from repro.core.placement import kv_cache_object
from repro.obs import MetricsRegistry
from repro.tiering.scheduler import TierManager
from repro.tiering.tiers import (
    MRM_TIER_RETENTION_S as RETENTION,
    hbm_tier,
    lpddr_tier,
    mrm_tier,
)
from repro.units import GiB


def tiers():
    return [hbm_tier(192 * GiB), mrm_tier(512 * GiB), lpddr_tier(512 * GiB)]


def kv_object(size=20 * GiB, lifetime_s=4 * RETENTION, reads=5e11, name="kv"):
    return kv_cache_object(
        size, read_bytes_per_s=reads, append_bytes_per_s=3e6,
        context_lifetime_s=lifetime_s, name=name,
    )


class TestLifecycleMetrics:
    def test_admit_and_remove_counted(self):
        reg = MetricsRegistry()
        manager = TierManager(tiers(), obs=reg)
        obj = kv_object()
        manager.admit(obj, "mrm", now=0.0)
        counters = reg.snapshot()["counters"]
        assert counters["tier.objects_admitted_total"] == 1.0
        assert reg.gauge("tier.bytes_used", tier="mrm").value == obj.size_bytes
        manager.remove(obj)
        counters = reg.snapshot()["counters"]
        assert counters["tier.objects_dropped_total"] == 1.0
        assert counters["tier.bytes_dropped_total"] == obj.size_bytes
        assert reg.gauge("tier.bytes_used", tier="mrm").value == 0

    def test_per_tier_gauges_track_occupancy(self):
        reg = MetricsRegistry()
        manager = TierManager(tiers(), obs=reg)
        a = kv_object(name="a")
        b = kv_object(size=10 * GiB, name="b")
        manager.admit(a, "mrm", now=0.0)
        manager.admit(b, "hbm", now=0.0)
        assert reg.gauge("tier.bytes_used", tier="mrm").value == a.size_bytes
        assert reg.gauge("tier.bytes_used", tier="hbm").value == b.size_bytes
        assert reg.gauge("tier.bytes_used", tier="lpddr").value == 0


class TestDeadlineMetrics:
    def test_hot_data_refreshes_and_pays_energy(self):
        reg = MetricsRegistry()
        manager = TierManager(tiers(), obs=reg)
        # High read rate: migrating to LPDDR would cost more per future
        # read than refreshing in place, so the manager refreshes.
        obj = kv_object(lifetime_s=10 * RETENTION, reads=5e11)
        manager.admit(obj, "mrm", now=0.0)
        actions = manager.tick(2 * RETENTION)
        assert actions["refreshed"] >= 1
        counters = reg.snapshot()["counters"]
        assert counters["tier.refreshes_total"] == manager.stats.refreshed
        assert (
            counters["tier.refresh_energy_j_total"]
            == manager.stats.refresh_energy_j
            > 0
        )
        assert manager.tier_of(obj) == "mrm"

    def test_cold_data_migrates_to_demotion_tier(self):
        reg = MetricsRegistry()
        manager = TierManager(tiers(), obs=reg)
        # Cold (no reads) but still needed: one move beats refreshing.
        obj = kv_object(lifetime_s=100 * RETENTION, reads=0.0)
        manager.admit(obj, "mrm", now=0.0)
        manager.tick(2 * RETENTION)
        assert manager.tier_of(obj) == "lpddr"
        counters = reg.snapshot()["counters"]
        assert counters["tier.migrations_total"] == 1.0
        assert (
            counters["tier.migration_energy_j_total"]
            == manager.stats.migration_energy_j
            > 0
        )
        # Occupancy moved with the object.
        assert reg.gauge("tier.bytes_used", tier="mrm").value == 0
        assert (
            reg.gauge("tier.bytes_used", tier="lpddr").value == obj.size_bytes
        )

    def test_expired_unneeded_data_dropped(self):
        reg = MetricsRegistry()
        manager = TierManager(tiers(), obs=reg)
        obj = kv_object(lifetime_s=0.5 * RETENTION)
        manager.admit(obj, "mrm", now=0.0)
        manager.tick(2 * RETENTION)
        counters = reg.snapshot()["counters"]
        assert counters["tier.objects_dropped_total"] == 1.0
        assert counters["tier.bytes_dropped_total"] == obj.size_bytes
        assert manager.resident_count() == 0

    def test_metrics_mirror_stats_through_mixed_scenario(self):
        reg = MetricsRegistry()
        manager = TierManager(tiers(), obs=reg)
        manager.admit(kv_object(lifetime_s=10 * RETENTION, name="hot"), "mrm", 0.0)
        manager.admit(
            kv_object(lifetime_s=100 * RETENTION, reads=0.0, name="cold"),
            "mrm", 0.0,
        )
        manager.admit(kv_object(lifetime_s=0.5 * RETENTION, name="done"), "mrm", 0.0)
        manager.tick(2 * RETENTION)
        counters = reg.snapshot()["counters"]
        stats = manager.stats
        assert counters["tier.objects_admitted_total"] == stats.admitted == 3
        assert counters["tier.refreshes_total"] == stats.refreshed
        assert counters["tier.migrations_total"] == stats.migrated
        assert counters["tier.objects_dropped_total"] == stats.dropped
        assert counters["tier.bytes_dropped_total"] == stats.bytes_dropped
