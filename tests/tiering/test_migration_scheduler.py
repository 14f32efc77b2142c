"""Tests for the retention-aware tier manager."""

import pytest

from repro.core.placement import kv_cache_object, weights_object
from repro.tiering.scheduler import TierManager
from repro.tiering.tiers import (
    MRM_TIER_RETENTION_S as RETENTION,
    hbm_tier,
    lpddr_tier,
    mrm_tier,
)
from repro.units import DAY, GiB


def tiers():
    return [hbm_tier(192 * GiB), mrm_tier(512 * GiB), lpddr_tier(512 * GiB)]


def objects():
    return [
        weights_object(100 * GiB, read_bytes_per_s=4e12, name="w"),
        kv_cache_object(20 * GiB, read_bytes_per_s=5e11,
                        append_bytes_per_s=3e6, name="kv"),
    ]


class TestTierManager:
    def test_admit_and_capacity(self):
        manager = TierManager(tiers())
        obj = objects()[1]
        manager.admit(obj, "mrm", now=0.0)
        assert manager.tier_of(obj) == "mrm"
        assert manager.used_bytes("mrm") == obj.size_bytes
        assert manager.resident_count() == 1

    def test_double_admit_rejected(self):
        manager = TierManager(tiers())
        obj = objects()[1]
        manager.admit(obj, "mrm", now=0.0)
        with pytest.raises(ValueError):
            manager.admit(obj, "hbm", now=0.0)

    def test_full_tier_rejected(self):
        manager = TierManager([hbm_tier(10 * GiB)])
        with pytest.raises(RuntimeError, match="full"):
            manager.admit(objects()[0], "hbm", now=0.0)

    def test_expired_unneeded_data_dropped(self):
        manager = TierManager(tiers())
        obj = kv_cache_object(
            10 * GiB, 1e11, 1e6, context_lifetime_s=60.0, name="short"
        )
        manager.admit(obj, "mrm", now=0.0)
        actions = manager.tick(now=2 * RETENTION)  # needed for 60 s only
        assert actions["dropped"] == 1
        assert manager.resident_count() == 0
        assert manager.used_bytes("mrm") == 0

    def test_needed_data_refreshes(self):
        manager = TierManager(tiers())
        obj = kv_cache_object(
            10 * GiB, 1e11, 1e6, context_lifetime_s=1.5 * RETENTION, name="live"
        )
        manager.admit(obj, "mrm", now=0.0)
        actions = manager.tick(now=RETENTION + 1.0)
        assert actions["refreshed"] == 1
        assert manager.stats.refresh_energy_j > 0
        assert manager.tier_of(obj) == "mrm"

    def test_long_horizon_cold_data_migrates_to_cheap_tier(self):
        """*Cold* data (low read rate) needed far beyond the MRM
        retention class should move once instead of paying endless
        refreshes; a hot object would stay (see the read-penalty term)."""
        manager = TierManager(tiers())
        obj = kv_cache_object(
            10 * GiB, 1e3, 1e2, context_lifetime_s=30 * DAY, name="cold"
        )
        manager.admit(obj, "mrm", now=0.0)
        actions = manager.tick(now=RETENTION + 1.0)
        assert actions["migrated"] == 1
        assert manager.tier_of(obj) == "lpddr"
        assert manager.stats.migration_energy_j > 0

    def test_touch_extends_horizon(self):
        manager = TierManager(tiers())
        obj = kv_cache_object(
            10 * GiB, 1e11, 1e6, context_lifetime_s=0.8 * RETENTION, name="kv"
        )
        manager.admit(obj, "mrm", now=0.0)
        manager.touch(obj, now=0.75 * RETENTION)  # still in use
        actions = manager.tick(now=RETENTION + 1.0)
        # The touch keeps the data alive: it gets refreshed or migrated
        # (whichever is cheaper), never dropped.
        assert actions["dropped"] == 0
        assert actions["refreshed"] + actions["migrated"] == 1

    def test_non_managed_tier_never_ticks(self):
        manager = TierManager(tiers())
        obj = objects()[0]
        manager.admit(obj, "hbm", now=0.0)
        actions = manager.tick(now=365 * DAY)
        assert actions == {"refreshed": 0, "migrated": 0, "dropped": 0}

    def test_explicit_remove(self):
        manager = TierManager(tiers())
        obj = objects()[1]
        manager.admit(obj, "mrm", now=0.0)
        manager.remove(obj)
        assert manager.resident_count() == 0
        with pytest.raises(KeyError):
            manager.remove(obj)

    def test_no_demotion_tier_always_refreshes(self):
        manager = TierManager(
            [hbm_tier(192 * GiB), mrm_tier(512 * GiB)]
        )
        obj = kv_cache_object(
            10 * GiB, 1e11, 1e6, context_lifetime_s=30 * DAY, name="cold"
        )
        manager.admit(obj, "mrm", now=0.0)
        actions = manager.tick(now=RETENTION + 1.0)
        assert actions["refreshed"] == 1
        assert actions["migrated"] == 0
