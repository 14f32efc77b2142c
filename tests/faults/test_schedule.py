"""Tests for deterministic fault-schedule generation."""

import numpy as np
import pytest

from repro.devices.catalog import FAULT_RATES, _PROFILES, get_fault_rates
from repro.faults import (
    KIND_ORDER,
    FaultEvent,
    FaultKind,
    generate_schedule,
    rates_for,
    timeline_fingerprint,
)
from repro.units import GiB, HOUR


def soft_rates(per_s: float) -> dict:
    return {
        FaultKind.RETENTION_VIOLATION: per_s,
        FaultKind.BIT_ERROR_BURST: per_s,
    }


class TestGenerateSchedule:
    def test_same_seed_same_timeline(self):
        a = generate_schedule(soft_rates(0.05), 1000.0, 123)
        b = generate_schedule(soft_rates(0.05), 1000.0, 123)
        assert a.events == b.events
        assert a.fingerprint() == b.fingerprint()

    def test_different_seed_different_timeline(self):
        a = generate_schedule(soft_rates(0.05), 1000.0, 1)
        b = generate_schedule(soft_rates(0.05), 1000.0, 2)
        assert a.fingerprint() != b.fingerprint()

    def test_seed_sequence_matches_int(self):
        """An int seed and the equivalent SeedSequence draw the same."""
        a = generate_schedule(soft_rates(0.05), 500.0, 9)
        b = generate_schedule(
            soft_rates(0.05), 500.0, np.random.SeedSequence(9)
        )
        assert a.events == b.events

    def test_events_sorted_and_sequenced(self):
        schedule = generate_schedule(soft_rates(0.1), 2000.0, 7)
        times = [e.time_s for e in schedule]
        assert times == sorted(times)
        assert [e.seq for e in schedule] == list(range(len(schedule)))

    def test_events_within_horizon(self):
        schedule = generate_schedule(soft_rates(0.1), 300.0, 5)
        assert all(0.0 < e.time_s < 300.0 for e in schedule)

    def test_magnitudes_in_unit_interval(self):
        schedule = generate_schedule(soft_rates(0.1), 2000.0, 3)
        assert len(schedule) > 50
        assert all(0.0 <= e.magnitude < 1.0 for e in schedule)

    def test_rate_zero_yields_no_events(self):
        schedule = generate_schedule({}, 1000.0, 0)
        assert len(schedule) == 0

    def test_poisson_count_scale(self):
        """Event counts track rate * duration (law of large numbers)."""
        rate, duration = 0.2, 5000.0
        schedule = generate_schedule(
            {FaultKind.BIT_ERROR_BURST: rate}, duration, 11
        )
        assert len(schedule) == pytest.approx(rate * duration, rel=0.15)

    def test_unused_kind_rate_does_not_shift_other_kinds(self):
        """Adding a second kind must not disturb the first kind's draws
        — per-kind streams are drawn in fixed KIND_ORDER."""
        only = generate_schedule(
            {FaultKind.RETENTION_VIOLATION: 0.05}, 1000.0, 21
        )
        both = generate_schedule(
            {
                FaultKind.RETENTION_VIOLATION: 0.05,
                FaultKind.KV_LOSS: 0.05,
            },
            1000.0,
            21,
        )
        def draws(schedule):
            return [
                (e.time_s, e.magnitude)
                for e in schedule.events
                if e.kind is FaultKind.RETENTION_VIOLATION
            ]

        assert draws(only) == draws(both)
        assert len(draws(only)) > 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            generate_schedule(
                {FaultKind.KV_LOSS: -1.0}, 100.0, 0
            )

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            generate_schedule({}, -1.0, 0)


class TestFingerprint:
    def test_fingerprint_sensitive_to_magnitude(self):
        schedule = generate_schedule(soft_rates(0.05), 500.0, 13)
        assert len(schedule) > 0
        tweaked = tuple(
            FaultEvent(
                time_s=e.time_s,
                kind=e.kind,
                device=e.device,
                magnitude=(e.magnitude + 0.1) % 1.0,
                seq=e.seq,
            )
            for e in schedule
        )
        assert timeline_fingerprint(tweaked) != schedule.fingerprint()


class TestCatalogRates:
    def test_every_profile_has_fault_rates(self):
        """Every catalog technology must publish a fault-rate spec."""
        assert set(FAULT_RATES) == set(_PROFILES)

    def test_get_fault_rates_unknown(self):
        with pytest.raises(KeyError):
            get_fault_rates("unobtainium")

    def test_rates_scale_with_capacity(self):
        small = rates_for("rram-potential", 1 * GiB)
        large = rates_for("rram-potential", 4 * GiB)
        soft = FaultKind.RETENTION_VIOLATION
        hard = FaultKind.DEVICE_FAILURE
        assert large[soft] == pytest.approx(4 * small[soft])
        assert large[hard] == pytest.approx(small[hard])  # per device

    def test_multiplier_scales_everything(self):
        base = rates_for("nand-tlc", 1 * GiB, kv_loss_per_hour=1.0)
        double = rates_for(
            "nand-tlc", 1 * GiB, rate_multiplier=2.0, kv_loss_per_hour=1.0
        )
        for kind in KIND_ORDER:
            assert double[kind] == pytest.approx(2 * base[kind])

    def test_kv_loss_rate_conversion(self):
        rates = rates_for("hbm3e", 1 * GiB, kv_loss_per_hour=3600.0)
        assert rates[FaultKind.KV_LOSS] == pytest.approx(1.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            rates_for("hbm3e", 0)
        with pytest.raises(ValueError):
            rates_for("hbm3e", 1 * GiB, kv_loss_per_hour=-1.0)
