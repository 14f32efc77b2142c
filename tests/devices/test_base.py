"""Tests for TechnologyProfile and the MemoryDevice accounting base."""

import pytest

from repro.devices.base import CellKind, MemoryDevice, TechnologyProfile
from repro.units import MILLISECOND, NANOSECOND, pj_per_bit_to_j_per_byte


def make_profile(**overrides) -> TechnologyProfile:
    base = dict(
        name="test-tech",
        cell=CellKind.RRAM,
        retention_s=3600.0,
        endurance_cycles=100.0,
        read_latency_s=50 * NANOSECOND,
        write_latency_s=100 * NANOSECOND,
        read_bandwidth=1e9,
        write_bandwidth=5e8,
        read_energy_j_per_byte=pj_per_bit_to_j_per_byte(10.0),
        write_energy_j_per_byte=pj_per_bit_to_j_per_byte(100.0),
    )
    base.update(overrides)
    return TechnologyProfile(**base)


class TestTechnologyProfile:
    def test_validation_rejects_bad_values(self):
        with pytest.raises(ValueError):
            make_profile(retention_s=0.0)
        with pytest.raises(ValueError):
            make_profile(endurance_cycles=0.0)
        with pytest.raises(ValueError):
            make_profile(read_bandwidth=0.0)
        with pytest.raises(ValueError):
            make_profile(access_granularity_bytes=0)

    def test_volatile_flag(self):
        assert make_profile(refresh_interval_s=64 * MILLISECOND).volatile
        assert not make_profile().volatile

    def test_non_volatile_is_ten_years(self):
        assert make_profile(retention_s=11 * 365.25 * 86400).non_volatile
        assert not make_profile(retention_s=3600.0).non_volatile

    def test_energy_unit_roundtrip(self):
        profile = make_profile()
        assert profile.read_energy_pj_per_bit == pytest.approx(10.0)
        assert profile.write_energy_pj_per_bit == pytest.approx(100.0)

    def test_with_overrides_creates_new(self):
        profile = make_profile()
        derived = profile.with_overrides(name="derived", endurance_cycles=1e9)
        assert derived.name == "derived"
        assert derived.endurance_cycles == 1e9
        assert profile.endurance_cycles == 100.0


class TestMemoryDeviceAccess:
    def test_read_accounting(self):
        dev = MemoryDevice(make_profile(), capacity_bytes=1024)
        result = dev.read(0, 512)
        assert dev.counters.reads == 1
        assert dev.counters.bytes_read == 512
        assert result.latency_s == pytest.approx(50e-9 + 512 / 1e9)
        assert result.energy_j == pytest.approx(
            512 * make_profile().read_energy_j_per_byte
        )

    def test_write_accounting(self):
        dev = MemoryDevice(make_profile(), capacity_bytes=1024)
        dev.write(0, 256)
        assert dev.counters.writes == 1
        assert dev.counters.bytes_written == 256
        assert dev.counters.write_energy_j > 0

    def test_out_of_range_rejected(self):
        dev = MemoryDevice(make_profile(), capacity_bytes=1024)
        with pytest.raises(ValueError, match="exceeds capacity"):
            dev.read(1000, 100)
        with pytest.raises(ValueError):
            dev.write(-1, 10)
        with pytest.raises(ValueError):
            dev.read(0, 0)
