"""DRAM device model: refresh-bound volatile memory.

DRAM's defining housekeeping cost is refresh: every row must be rewritten
once per retention interval (64 ms at normal temperature, halved at high
temperature) whether or not the data is ever used again.  The paper's
Section 3 argues this is a retention/lifetime mismatch — retention is too
*short* for the data, so the device burns write-path energy forever.

:class:`DRAMDevice` extends the base accounting with:

- refresh-energy accrual plus a *refresh bandwidth tax*: the
  fraction of device time spent refreshing instead of serving accesses;
- temperature-dependent refresh interval doubling/halving;
- self-refresh (idle) power accounting.
"""

from __future__ import annotations

from typing import Optional

from repro.devices.base import MemoryDevice, TechnologyProfile
from repro.devices.catalog import DDR5
from repro.units import GiB


class DRAMDevice(MemoryDevice):
    """A DRAM device (DDR-class) with refresh modeling.

    Parameters
    ----------
    profile:
        A volatile profile (must have ``refresh_interval_s``).
    capacity_bytes:
        Device capacity.
    temperature_c:
        Operating temperature.  Above ``high_temp_threshold_c`` the
        refresh interval halves (2x refresh rate), as JEDEC mandates.
    """

    HIGH_TEMP_THRESHOLD_C = 85.0
    #: Fraction of a refresh interval the device is busy refreshing
    #: (tRFC * number of refresh commands / tREFI), typical for modern
    #: high-density dies.
    REFRESH_TIME_OVERHEAD = 0.035

    def __init__(
        self,
        profile: Optional[TechnologyProfile] = None,
        capacity_bytes: int = 16 * GiB,
        temperature_c: float = 55.0,
        name: str = "",
    ) -> None:
        profile = profile or DDR5
        if not profile.volatile:
            raise ValueError(
                f"DRAMDevice requires a volatile profile, got {profile.name!r}"
            )
        super().__init__(profile, capacity_bytes, name=name)
        self.temperature_c = temperature_c

    @property
    def effective_refresh_interval_s(self) -> float:
        """Refresh interval after temperature derating."""
        base = self.profile.refresh_interval_s
        if self.temperature_c > self.HIGH_TEMP_THRESHOLD_C:
            return base / 2.0
        return base

    def refresh_bandwidth_tax(self) -> float:
        """Fraction of device time unavailable due to refresh.

        Doubles with refresh rate at high temperature.
        """
        scale = self.profile.refresh_interval_s / self.effective_refresh_interval_s
        return min(1.0, self.REFRESH_TIME_OVERHEAD * scale)

    def accrue_refresh_energy(self, duration_s: float, occupancy: float = 1.0) -> float:
        """Refresh energy for ``duration_s``, honoring temperature derating.

        Note: unlike storage devices, DRAM must refresh *all* rows, not
        just occupied ones — the device has no notion of valid data.  The
        ``occupancy`` argument therefore defaults to 1.0 and only exists
        so experiments can model hypothetical occupancy-aware refresh.
        """
        if not 0.0 <= occupancy <= 1.0:
            raise ValueError(f"occupancy {occupancy} outside [0, 1]")
        if duration_s < 0:
            raise ValueError("duration must be >= 0")
        intervals = duration_s / self.effective_refresh_interval_s
        refreshed_bytes = self.capacity_bytes * occupancy * intervals
        energy = refreshed_bytes * self.profile.write_energy_j_per_byte
        c = self.counters
        c.refreshes += int(intervals)
        c.bytes_refreshed += int(refreshed_bytes)
        c.refresh_energy_j += energy
        return energy

    def refresh_power_w(self, occupancy: float = 1.0) -> float:
        """Steady-state refresh power draw in watts."""
        per_interval = (
            self.capacity_bytes * occupancy * self.profile.write_energy_j_per_byte
        )
        return per_interval / self.effective_refresh_interval_s
