"""Tests for fault application: device primitives, the controller
injector, and the recovery (graceful-degradation) paths."""

import numpy as np
import pytest

from repro.core.controller import MAX_READ_RETRIES, RETRY_BACKOFF_S, MRMController
from repro.core.mrm import MRMConfig, MRMDevice
from repro.core.zones import BlockState
from repro.devices.base import BankFailure, DeviceFailure
from repro.ecc.bch import BCHCode
from repro.faults import (
    ControllerFaultInjector,
    FaultEvent,
    FaultKind,
    FaultSchedule,
)
from repro.units import MiB

CODE = BCHCode(n=32768, k=32648, t=8)


def outcomes(log):
    """Each applied event's outcome, in timeline order."""
    return [entry["outcome"] for entry in log.entries]


def make_device() -> MRMDevice:
    return MRMDevice(
        MRMConfig(
            capacity_bytes=16 * MiB, block_bytes=1 * MiB, blocks_per_zone=4
        )
    )


def make_controller(mitigated=True, device=None) -> MRMController:
    return MRMController(
        device or make_device(),
        ecc_code=CODE,
        recovery=mitigated,
    )


def write_blocks(controller, count=4, retention_s=3600.0):
    blocks = []
    for _ in range(count):
        blocks.extend(
            controller.write(
                1 * MiB, retention_s, 0.0,
                liveness=lambda _b, _n: True,
            )
        )
    return blocks


def event(kind, time_s=1.0, magnitude=0.5, seq=0) -> FaultEvent:
    return FaultEvent(
        time_s=time_s, kind=kind, device="mrm", magnitude=magnitude, seq=seq
    )


def schedule_of(*events) -> FaultSchedule:
    return FaultSchedule(
        events=tuple(events),
        duration_s=max((e.time_s for e in events), default=0.0) + 1.0,
    )


class TestDevicePrimitives:
    def test_inject_and_clear_bit_errors(self):
        controller = make_controller()
        block = write_blocks(controller, count=1)[0]
        device = controller.device
        device.inject_bit_errors(block, 5)
        device.inject_bit_errors(block, 3)
        assert device.injected_bit_errors(block) == 8
        assert device.clear_transient_errors(block) == 8
        assert device.injected_bit_errors(block) == 0

    def test_inject_retention_violation_ages_block(self):
        controller = make_controller()
        block = write_blocks(controller, count=1)[0]
        controller.device.inject_retention_violation(block, 10.0, severity=3.0)
        assert block.age(10.0) == pytest.approx(3.0 * block.retention_s)

    def test_fail_bank_loses_zone(self):
        controller = make_controller()
        blocks = write_blocks(controller, count=4)
        device = controller.device
        zone_id = blocks[0].zone_id
        lost = device.fail_bank(zone_id)
        assert lost and all(b.zone_id == zone_id for b in lost)
        assert all(b.state is BlockState.EXPIRED for b in lost)
        assert zone_id in device.failed_zones
        with pytest.raises(BankFailure):
            device.read_block(blocks[0], 1.0)
        with pytest.raises(BankFailure):
            device.reset_zone(zone_id)

    def test_fail_device_is_total(self):
        controller = make_controller()
        blocks = write_blocks(controller, count=2)
        device = controller.device
        lost = device.fail_device()
        assert device.is_failed
        assert set(map(id, lost)) == set(map(id, blocks))
        with pytest.raises(DeviceFailure):
            device.read_block(blocks[0], 1.0)
        with pytest.raises(DeviceFailure):
            device.append(0, 1024, 3600.0, 1.0)

    def test_wear_leveler_skips_failed_zones(self):
        controller = make_controller()
        device = controller.device
        device.fail_bank(0)
        picked = {controller.wear.pick_zone().zone_id for _ in range(8)}
        assert 0 not in picked


class TestReadWithRecovery:
    def test_clean_read_ok(self):
        controller = make_controller()
        blocks = write_blocks(controller, count=2)
        result = controller.read_with_recovery(blocks, 1.0)
        assert not result.lost_blocks

    def test_burst_recovered_by_retry(self):
        """A transient burst clears on re-read: retry recovers it."""
        controller = make_controller()
        block = write_blocks(controller, count=1)[0]
        controller.device.inject_bit_errors(block, CODE.t + 10)
        result = controller.read_with_recovery([block], 1.0)
        assert not result.lost_blocks
        assert controller.stats.read_retries >= 1
        assert controller.stats.blocks_recovered == 1
        assert controller.stats.data_loss_blocks == 0

    def test_burst_lost_without_mitigation(self):
        controller = make_controller(mitigated=False)
        block = write_blocks(controller, count=1)[0]
        controller.device.inject_bit_errors(block, CODE.t + 10)
        result = controller.read_with_recovery([block], 1.0)
        assert result.lost_blocks
        assert controller.stats.data_loss_blocks == 1
        assert controller.stats.read_retries == 0
        assert block.state is BlockState.EXPIRED

    def test_decay_recovered_by_refresh_escalation(self):
        """Age-driven decay survives re-reads; only the escalated
        refresh (restore from the durable copy) recovers it."""
        controller = make_controller()
        block = write_blocks(controller, count=1)[0]
        controller.device.inject_retention_violation(block, 100.0, severity=6.0)
        result = controller.read_with_recovery([block], 100.0)
        assert not result.lost_blocks
        assert controller.stats.escalated_refreshes == 1
        assert controller.stats.read_retries == MAX_READ_RETRIES
        # the refresh reset the block's age
        assert block.written_at == 100.0

    def test_retry_cost_accounted(self):
        controller = make_controller()
        block = write_blocks(controller, count=1)[0]
        clean = controller.read_with_recovery([block], 1.0).latency_s
        controller.device.inject_bit_errors(block, CODE.t + 10)
        noisy = controller.read_with_recovery([block], 1.0)
        assert noisy.latency_s > clean + RETRY_BACKOFF_S

    def test_no_ecc_code_falls_back_to_plain_read(self):
        controller = MRMController(make_device())
        blocks = write_blocks(controller, count=1)
        result = controller.read_with_recovery(blocks, 1.0)
        assert not result.lost_blocks and result.latency_s > 0


class TestControllerFaultInjector:
    def test_burst_event_applies(self):
        controller = make_controller()
        write_blocks(controller, count=4)
        injector = ControllerFaultInjector(
            controller, schedule_of(event(FaultKind.BIT_ERROR_BURST))
        )
        assert injector.apply_until(2.0) == 1
        assert outcomes(injector.log).count("burst") == 1
        assert injector.next_event_time() is None

    def test_apply_until_respects_time(self):
        controller = make_controller()
        write_blocks(controller, count=2)
        injector = ControllerFaultInjector(
            controller,
            schedule_of(
                event(FaultKind.BIT_ERROR_BURST, time_s=1.0, seq=0),
                event(FaultKind.BIT_ERROR_BURST, time_s=5.0, seq=1),
            ),
        )
        assert injector.apply_until(2.0) == 1
        assert injector.next_event_time() == 5.0
        assert injector.apply_until(10.0) == 1

    def test_retention_event_ages_victim(self):
        controller = make_controller()
        blocks = write_blocks(controller, count=4)
        injector = ControllerFaultInjector(
            controller,
            schedule_of(event(FaultKind.RETENTION_VIOLATION, magnitude=0.9)),
        )
        injector.apply_until(2.0)
        assert outcomes(injector.log).count("aged") == 1
        aged = [b for b in blocks if b.written_at < 0]
        assert len(aged) == 1

    def test_bank_failure_remaps_when_mitigated(self):
        controller = make_controller(mitigated=True)
        write_blocks(controller, count=8)
        injector = ControllerFaultInjector(
            controller,
            # magnitude 0.1 -> zone 0 of 4, which holds written data
            schedule_of(event(FaultKind.BANK_FAILURE, magnitude=0.1)),
        )
        injector.apply_until(2.0)
        assert outcomes(injector.log).count("bank-failed") == 1
        assert controller.stats.remapped_zones == 1
        assert controller.stats.data_loss_blocks > 0

    def test_device_failure_drains_when_mitigated(self):
        controller = make_controller(mitigated=True)
        blocks = write_blocks(controller, count=4)
        injector = ControllerFaultInjector(
            controller, schedule_of(event(FaultKind.DEVICE_FAILURE))
        )
        injector.apply_until(2.0)
        assert outcomes(injector.log).count("drained") == 1
        assert len(controller.migration_queue) == len(blocks)
        assert controller.stats.data_loss_blocks == 0

    def test_device_failure_loses_data_unmitigated(self):
        controller = make_controller(mitigated=False)
        blocks = write_blocks(controller, count=4)
        injector = ControllerFaultInjector(
            controller, schedule_of(event(FaultKind.DEVICE_FAILURE))
        )
        injector.apply_until(2.0)
        assert outcomes(injector.log).count("device-lost") == 1
        assert controller.stats.data_loss_blocks == len(blocks)
        assert controller.migration_queue == []

    def test_events_after_device_death_are_noops(self):
        controller = make_controller(mitigated=False)
        write_blocks(controller, count=2)
        injector = ControllerFaultInjector(
            controller,
            schedule_of(
                event(FaultKind.DEVICE_FAILURE, time_s=1.0, seq=0),
                event(FaultKind.BIT_ERROR_BURST, time_s=2.0, seq=1),
            ),
        )
        injector.apply_until(5.0)
        assert outcomes(injector.log).count("device-already-dead") == 1

    def test_kv_events_ignored_by_controller_injector(self):
        controller = make_controller()
        write_blocks(controller, count=2)
        injector = ControllerFaultInjector(
            controller, schedule_of(event(FaultKind.KV_LOSS))
        )
        assert injector.apply_until(5.0) == 0
        assert injector.log.entries == []

    def test_same_schedule_same_log(self):
        """Identical schedules on identical controllers produce the
        identical effect log — victims come from magnitudes, not RNG."""
        sched = schedule_of(
            event(FaultKind.BIT_ERROR_BURST, time_s=1.0, magnitude=0.3, seq=0),
            event(FaultKind.RETENTION_VIOLATION, time_s=2.0, magnitude=0.7,
                  seq=1),
            event(FaultKind.BANK_FAILURE, time_s=3.0, magnitude=0.1, seq=2),
        )
        prints = []
        for _ in range(2):
            controller = make_controller()
            write_blocks(controller, count=8)
            injector = ControllerFaultInjector(controller, sched)
            injector.apply_until(10.0)
            prints.append(injector.log.fingerprint())
        assert prints[0] == prints[1]


class TestConcurrentFaultCohort:
    """Retention violation + bank failure landing in one cohort (same
    timestamp) on one controller: the mitigation ladder must apply in
    seq order and stay deterministic."""

    def _cohort(self, bank_first=True):
        # Same instant; seq decides the application order inside the
        # cohort.  Magnitude 0.1 -> zone 0 (holds written data);
        # magnitude 0.9 -> a high-index victim in zone 1, so the two
        # faults strike disjoint blocks.
        kinds = [
            (FaultKind.BANK_FAILURE, 0.1),
            (FaultKind.RETENTION_VIOLATION, 0.9),
        ]
        if not bank_first:
            kinds.reverse()
        return schedule_of(
            *(
                event(kind, time_s=5.0, magnitude=magnitude, seq=seq)
                for seq, (kind, magnitude) in enumerate(kinds)
            )
        )

    def test_ladder_applies_both_and_recovers(self):
        controller = make_controller(mitigated=True)
        blocks = write_blocks(controller, count=8)
        injector = ControllerFaultInjector(controller, self._cohort())
        assert injector.apply_until(5.0) == 2
        # Both arms of the cohort landed, in seq order.
        assert [e["kind"] for e in injector.log.entries] == [
            "bank-failure", "retention-violation",
        ]
        assert [e["seq"] for e in injector.log.entries] == [0, 1]
        assert controller.stats.remapped_zones == 1
        # The aged survivor climbs the ladder: retries exhaust, the
        # escalated refresh restores it from the durable copy.
        live = [b for b in blocks if b.state is BlockState.VALID]
        assert live, "bank failure took out more than its own zone"
        result = controller.read_with_recovery(live, 5.0)
        assert not result.lost_blocks
        assert controller.stats.escalated_refreshes == 1
        assert (
            controller.stats.read_retries
            == MAX_READ_RETRIES
        )

    def test_unmitigated_cohort_loses_data(self):
        controller = make_controller(mitigated=False)
        blocks = write_blocks(controller, count=8)
        injector = ControllerFaultInjector(controller, self._cohort())
        injector.apply_until(5.0)
        assert controller.stats.remapped_zones == 0
        live = [b for b in blocks if b.state is BlockState.VALID]
        result = controller.read_with_recovery(live, 5.0)
        # No escalation rung: the severely aged block stays lost.
        assert result.lost_blocks
        assert controller.stats.escalated_refreshes == 0
        assert len(result.lost_blocks) == 1

    def test_cohort_fingerprint_stable(self):
        prints = []
        for _ in range(3):
            controller = make_controller(mitigated=True)
            write_blocks(controller, count=8)
            injector = ControllerFaultInjector(controller, self._cohort())
            injector.apply_until(10.0)
            controller.read_with_recovery(
                [
                    b
                    for b in controller.device.space.valid_blocks()
                ],
                5.0,
            )
            prints.append(injector.log.fingerprint())
        assert len(set(prints)) == 1

    def test_cohort_order_follows_seq_not_kind(self):
        """Swapping seq inside the cohort swaps the application order:
        ordering is the schedule's seq, nothing implicit."""
        controller = make_controller(mitigated=True)
        write_blocks(controller, count=8)
        injector = ControllerFaultInjector(
            controller, self._cohort(bank_first=False)
        )
        injector.apply_until(5.0)
        assert [e["kind"] for e in injector.log.entries] == [
            "retention-violation", "bank-failure",
        ]
