"""Tests for the MRM software control plane."""

import pytest

from repro.core.controller import MRMController
from repro.core.mrm import MRMConfig, MRMDevice
from repro.devices.catalog import RRAM_POTENTIAL
from repro.units import HOUR, MiB


@pytest.fixture
def controller(small_mrm) -> MRMController:
    return MRMController(small_mrm)


class TestWritePath:
    def test_write_splits_into_blocks(self, controller):
        blocks = controller.write(3 * MiB + 10, retention_s=HOUR, now=0.0)
        assert len(blocks) == 4
        assert sum(b.size_bytes for b in blocks) == 3 * MiB + 10

    def test_write_registers_with_scheduler(self, controller):
        controller.write(2 * MiB, HOUR, now=0.0)
        assert controller.scheduler.pending() == 2

    def test_retention_affinity_separates_classes(self, controller):
        short = controller.write(MiB, 64.0, now=0.0)
        long = controller.write(MiB, 7000.0, now=0.0)
        assert short[0].zone_id != long[0].zone_id

    def test_affinity_disabled_shares_zone(self, small_mrm):
        controller = MRMController(small_mrm, retention_affinity=False)
        a = controller.write(MiB, 64.0, now=0.0)
        b = controller.write(MiB, 7000.0, now=0.0)
        assert a[0].zone_id == b[0].zone_id

    def test_bad_size_rejected(self, controller):
        with pytest.raises(ValueError):
            controller.write(0, HOUR, now=0.0)


class TestReadDelete:
    def test_read_returns_costs(self, controller):
        blocks = controller.write(2 * MiB, HOUR, now=0.0)
        latency, energy = controller.read(blocks, now=1.0)
        assert latency > 0 and energy > 0
        assert controller.stats.bytes_read == 2 * MiB

    def test_delete_then_tick_reclaims_zone(self, small_mrm):
        controller = MRMController(small_mrm)
        # Fill one whole zone (8 blocks) so it closes.
        blocks = controller.write(8 * MiB, HOUR, now=0.0)
        zone_id = blocks[0].zone_id
        controller.delete(blocks)
        controller.tick(now=1.0)
        assert controller.stats.zones_reclaimed >= 1
        assert small_mrm.space.zone(zone_id).is_empty


class TestTick:
    def test_expired_write_once_data(self, controller):
        controller.write(MiB, 64.0, now=0.0)
        summary = controller.tick(now=100.0)
        assert summary["expired"] == 1
        assert summary["refreshed"] == 0

    def test_live_data_refreshes(self, controller):
        controller.write(MiB, 64.0, now=0.0, liveness=lambda b, t: t < 200.0)
        summary = controller.tick(now=100.0)
        assert summary["refreshed"] == 1
        assert controller.housekeeping_energy_j > 0

    def test_scheduler_refresh_books_once_on_the_device(self, small_mrm):
        """One scheduler refresh is one block of refresh bytes and one
        refresh's energy on the device counters; the scheduler's tally is
        the same refresh, not a second one."""
        controller = MRMController(small_mrm)
        (block,) = controller.write(
            MiB, 64.0, now=0.0, liveness=lambda b, t: True
        )
        controller.tick(now=100.0)
        one_refresh_j = small_mrm.write_energy_for(MiB, 64.0)
        counters = small_mrm.counters
        assert counters.refreshes == 1
        assert counters.bytes_refreshed == block.size_bytes == MiB
        assert counters.refresh_energy_j == one_refresh_j
        assert controller.housekeeping_energy_j == one_refresh_j

    def test_migration_queue_populated(self, small_mrm):
        controller = MRMController(small_mrm)
        controller.scheduler.wear_migration_threshold = 0.0
        controller.write(MiB, 64.0, now=0.0, liveness=lambda b, t: True)
        summary = controller.tick(now=100.0)
        assert summary["migrated"] == 1
        assert len(controller.migration_queue) == 1

    def test_open_zone_not_reclaimed(self, controller):
        blocks = controller.write(MiB, HOUR, now=0.0)
        controller.delete(blocks)
        controller.tick(now=1.0)
        # Zone is still open for its retention class: must not reset.
        assert controller.stats.zones_reclaimed == 0


class TestOccupancy:
    def test_occupancy_and_free_zones(self, controller):
        assert controller.occupancy() == 0.0
        assert controller.free_zones() == 4
        controller.write(MiB, HOUR, now=0.0)
        assert controller.occupancy() > 0.0
        assert controller.free_zones() == 3


class TestEndToEndChurn:
    def test_sustained_churn_does_not_exhaust_zones(self, small_mrm):
        """Write-expire-reclaim in a loop: the controller must recycle
        zones indefinitely (the no-GC-write-amplification property)."""
        controller = MRMController(small_mrm)
        now = 0.0
        for round_index in range(20):
            blocks = controller.write(8 * MiB, 64.0, now=now)
            now += 100.0  # everything expires (retention 64s)
            controller.tick(now=now)
        assert controller.stats.zones_reclaimed >= 19
        # No data was ever copied: the device wrote exactly what the
        # host wrote (plus zero GC traffic).
        assert small_mrm.counters.bytes_written == 20 * 8 * MiB
