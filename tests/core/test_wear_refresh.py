"""Tests for the software wear-leveler and refresh scheduler."""

import pytest

from repro.core.refresh import RefreshDecision, RefreshScheduler
from repro.core.wear import WearLeveler
from repro.units import HOUR, MiB


class TestWearLeveler:
    def test_least_worn_avoids_damaged_zone(self, small_mrm):
        # Damage zone 0 heavily, then reset it so it is empty again.
        for _ in range(8):
            small_mrm.append(0, MiB, 60.0, now=0.0)
        small_mrm.reset_zone(0)
        leveler = WearLeveler(small_mrm)
        picked = leveler.pick_zone()
        assert picked.zone_id != 0

    def test_no_empty_zone_raises(self, small_mrm):
        leveler = WearLeveler(small_mrm)
        for zone_id in range(4):
            small_mrm.append(zone_id, MiB, 60.0, now=0.0)
        with pytest.raises(RuntimeError, match="empty"):
            leveler.pick_zone()

    def test_projected_lifetime_decreases_with_hot_slot(self, small_mrm):
        leveler = WearLeveler(small_mrm)
        assert leveler.projected_lifetime_writes() == float("inf")
        block, _w = small_mrm.append(0, MiB, 60.0, now=0.0)
        first = leveler.projected_lifetime_writes()
        # Hammering one slot (refreshes) raises peak damage without new
        # appends: the projection must shrink.
        small_mrm.refresh_block(block, now=1.0)
        small_mrm.refresh_block(block, now=2.0)
        assert leveler.projected_lifetime_writes() < first

    def test_imbalance_of_fresh_device(self, small_mrm):
        assert WearLeveler(small_mrm).damage_imbalance() == 1.0


class TestRefreshScheduler:
    def make(self, small_mrm, **kwargs) -> RefreshScheduler:
        return RefreshScheduler(small_mrm, **kwargs)

    def test_decision_time_honors_guard_band(self, small_mrm):
        scheduler = self.make(small_mrm, guard_band=0.1)
        block, _w = small_mrm.append(0, MiB, 100.0, now=0.0)
        assert scheduler.decision_time(block) == pytest.approx(90.0)

    def test_dead_data_expires(self, small_mrm):
        scheduler = self.make(small_mrm)
        block, _w = small_mrm.append(0, MiB, 100.0, now=0.0)
        scheduler.register(block, lambda b, t: False)
        decisions = scheduler.run_until(100.0)
        assert decisions == [(block, RefreshDecision.EXPIRE)]
        assert scheduler.stats.expired == 1
        assert scheduler.pending() == 0

    def test_live_data_refreshes_and_rearms(self, small_mrm):
        scheduler = self.make(small_mrm)
        block, _w = small_mrm.append(0, MiB, 100.0, now=0.0)
        scheduler.register(block, lambda b, t: t < 250.0)
        decisions = scheduler.run_until(400.0)
        kinds = [d for _b, d in decisions]
        assert kinds[0] == RefreshDecision.REFRESH
        assert kinds[-1] == RefreshDecision.EXPIRE
        assert scheduler.stats.refreshed >= 1
        assert scheduler.stats.refresh_energy_j > 0

    def test_nothing_due_before_deadline(self, small_mrm):
        scheduler = self.make(small_mrm)
        block, _w = small_mrm.append(0, MiB, 100.0, now=0.0)
        scheduler.register(block, lambda b, t: True)
        assert scheduler.run_until(10.0) == []

    def test_deregistered_block_skipped(self, small_mrm):
        scheduler = self.make(small_mrm)
        block, _w = small_mrm.append(0, MiB, 100.0, now=0.0)
        scheduler.register(block, lambda b, t: True)
        scheduler.deregister(block)
        assert scheduler.run_until(1000.0) == []

    def test_worn_slot_migrates_instead_of_refreshing(self, small_mrm):
        scheduler = self.make(small_mrm, wear_migration_threshold=0.0)
        block, _w = small_mrm.append(0, MiB, 100.0, now=0.0)
        scheduler.register(block, lambda b, t: True)
        decisions = scheduler.run_until(100.0)
        assert decisions == [(block, RefreshDecision.MIGRATE)]
        assert scheduler.pending() == 0

    def test_next_decision_time(self, small_mrm):
        scheduler = self.make(small_mrm, guard_band=0.0)
        assert scheduler.next_decision_time() is None
        block, _w = small_mrm.append(0, MiB, 50.0, now=0.0)
        scheduler.register(block, lambda b, t: True)
        assert scheduler.next_decision_time() == pytest.approx(50.0)

    def test_guard_band_validation(self, small_mrm):
        with pytest.raises(ValueError):
            self.make(small_mrm, guard_band=1.0)
