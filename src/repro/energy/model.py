"""Memory-subsystem energy accounting.

The breakdown separates exactly the components the paper's argument
needs:

- **access energy** — pJ/bit x bytes actually moved (the useful work);
- **refresh energy** — volatile tiers rewriting themselves on a timer,
  proportional to capacity and time, *independent of use* (the DRAM/HBM
  housekeeping tax, E3);
- **static energy** — peripheral/leakage power x time.

:func:`accelerator_energy_split` combines a memory breakdown with the
compute die's power to reproduce the "memory is about a third of
accelerator energy" package-level claim (E4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.devices.base import MemoryTier
from repro.units import Bytes, GiB, Joules, Ratio, Seconds, Watts


@dataclass(frozen=True)
class MemoryEnergyBreakdown:
    """Joules spent by one memory pool over an interval."""

    tier: str
    duration_s: Seconds
    access_read_j: Joules
    access_write_j: Joules
    refresh_j: Joules
    static_j: Joules

    @property
    def total_j(self) -> Joules:
        return self.access_read_j + self.access_write_j + self.refresh_j + self.static_j

    @property
    def mean_power_w(self) -> Watts:
        if self.duration_s <= 0:
            return 0.0
        return self.total_j / self.duration_s


def memory_energy(
    tier: MemoryTier,
    duration_s: Seconds,
    bytes_read: Bytes,
    bytes_written: Bytes,
    occupancy: Ratio = 1.0,
) -> MemoryEnergyBreakdown:
    """Energy of one tier over an interval of activity.

    Refresh: volatile tiers rewrite their whole capacity every refresh
    interval regardless of occupancy (DRAM has no validity map); the
    ``occupancy`` parameter exists to model hypothetical occupancy-aware
    refresh and is applied only when < 1.
    """
    if duration_s < 0 or bytes_read < 0 or bytes_written < 0:
        raise ValueError("duration and byte counts must be >= 0")
    if not 0.0 <= occupancy <= 1.0:
        raise ValueError("occupancy outside [0, 1]")
    refresh_j = 0.0
    if tier.profile.volatile:
        intervals = duration_s / tier.profile.refresh_interval_s
        refresh_j = (
            tier.capacity_bytes
            * occupancy
            * tier.profile.write_energy_j_per_byte
            * intervals
        )
    static_j = (
        tier.profile.static_power_w_per_gib
        * (tier.capacity_bytes / GiB)
        * duration_s
    )
    return MemoryEnergyBreakdown(
        tier=tier.name,
        duration_s=duration_s,
        access_read_j=tier.read_energy_j(bytes_read),
        access_write_j=tier.write_energy_j(bytes_written),
        refresh_j=refresh_j,
        static_j=static_j,
    )


@dataclass(frozen=True)
class AcceleratorEnergyBreakdown:
    """Package-level split: compute die vs memory subsystem."""

    compute_j: Joules
    memory_j: Joules

    @property
    def total_j(self) -> Joules:
        return self.compute_j + self.memory_j

    @property
    def memory_fraction(self) -> Ratio:
        total = self.total_j
        if total == 0:
            return 0.0
        return self.memory_j / total


def accelerator_energy_split(
    memory_breakdowns: Mapping[str, MemoryEnergyBreakdown],
    compute_power_w: Watts,
    duration_s: Seconds,
) -> AcceleratorEnergyBreakdown:
    """Combine tier energies with compute-die energy (the die at full
    power) over an interval."""
    if compute_power_w < 0 or duration_s < 0:
        raise ValueError("power and duration must be >= 0")
    memory_j = sum(b.total_j for b in memory_breakdowns.values())
    compute_j = compute_power_w * duration_s
    return AcceleratorEnergyBreakdown(compute_j=compute_j, memory_j=memory_j)
