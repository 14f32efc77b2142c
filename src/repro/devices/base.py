"""Base classes shared by every memory-technology model.

Three layers:

1. :class:`TechnologyProfile` — an immutable bundle of per-technology
   constants (retention, endurance, latency, bandwidth, energy, cost).
   The paper's Figure 1 and most of its in-text arithmetic are functions
   of these constants alone.
2. :class:`MemoryTier` — a pool of one technology with aggregate
   capacity and bandwidth: an accelerator's co-packaged memory or one
   level of the cluster hierarchy.
3. :class:`MemoryDevice` — a behavioural model of one device instance:
   it accounts reads/writes/refreshes and integrates their energy.

Addresses are plain byte offsets within the device.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.sim.stats import fold_sum
from repro.units import (
    BITS_PER_BYTE,
    Bytes,
    GiB,
    Joules,
    PICOJOULE,
    Seconds,
    Watts,
    YEAR,
)

#: Values per fold call in :meth:`MemoryDevice.read_passes`.
_FOLD_CHUNK = 4096


class CellKind(enum.Enum):
    """The underlying storage cell family."""

    DRAM = "dram"
    NAND_FLASH = "nand-flash"
    NOR_FLASH = "nor-flash"
    PCM = "pcm"
    RRAM = "rram"
    STT_MRAM = "stt-mram"
    MRM = "mrm"  # the paper's proposed managed-retention cell (resistive)


class AccessKind(enum.Enum):
    """What a device access did (read/write/refresh/erase)."""

    READ = "read"
    WRITE = "write"
    REFRESH = "refresh"
    ERASE = "erase"


@dataclass(frozen=True)
class TechnologyProfile:
    """Constants describing one memory technology or product.

    All units are SI: seconds, bytes, bytes/second, joules.  Datasheet
    energies quoted in pJ/bit should be converted with
    :func:`repro.units.pj_per_bit_to_j_per_byte` when building a profile.

    Attributes
    ----------
    name:
        Catalog key, e.g. ``"hbm3e"`` or ``"pcm-optane"``.
    cell:
        Cell family.
    retention_s:
        Time a cell holds data without refresh.  ``math.inf`` for
        10+-year non-volatile cells (the "effectively forever" regime the
        paper argues against).
    endurance_cycles:
        Write cycles a cell sustains before permanent degradation.
    read_latency_s / write_latency_s:
        Single-access latency at the device interface.
    read_bandwidth / write_bandwidth:
        Sustained device throughput, bytes/second.
    read_energy_j_per_byte / write_energy_j_per_byte:
        Dynamic access energy.
    refresh_interval_s:
        If not ``None``, every cell must be rewritten at least this often
        (DRAM-family).  The device model charges refresh energy.
    static_power_w_per_gib:
        Background power (peripheral circuitry, leakage) per GiB.
    byte_addressable:
        Whether the device supports fine-grained random access.
    access_granularity_bytes:
        Smallest efficient access unit (cache line, Flash page, MRM block).
    erase_block_bytes:
        For Flash-family devices: erase unit size (``None`` otherwise).
    cost_usd_per_gib:
        Acquisition cost, for TCO modeling.
    density_gbit_per_mm2:
        Areal density, for the scaling-wall analysis (E11).
    source:
        Citation for the headline numbers.
    """

    name: str
    cell: CellKind
    retention_s: Seconds
    endurance_cycles: float
    read_latency_s: Seconds
    write_latency_s: Seconds
    read_bandwidth: float
    write_bandwidth: float
    read_energy_j_per_byte: float
    write_energy_j_per_byte: float
    refresh_interval_s: Optional[Seconds] = None
    static_power_w_per_gib: float = 0.0
    byte_addressable: bool = True
    access_granularity_bytes: int = 64  # DDR cache-line burst default
    erase_block_bytes: Optional[int] = None
    cost_usd_per_gib: float = 0.0
    density_gbit_per_mm2: float = 0.0
    source: str = ""

    def __post_init__(self) -> None:
        if self.retention_s <= 0:
            raise ValueError(f"{self.name}: retention must be positive")
        if self.endurance_cycles <= 0:
            raise ValueError(f"{self.name}: endurance must be positive")
        for attr in ("read_latency_s", "write_latency_s"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{self.name}: {attr} must be >= 0")
        for attr in ("read_bandwidth", "write_bandwidth"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{self.name}: {attr} must be > 0")
        if self.access_granularity_bytes < 1:
            raise ValueError(f"{self.name}: access granularity must be >= 1 byte")

    @property
    def volatile(self) -> bool:
        """True for cells needing periodic refresh to hold data."""
        return self.refresh_interval_s is not None

    @property
    def non_volatile(self) -> bool:
        """True for 10+-year retention (the storage-class regime)."""
        return self.retention_s >= 10 * YEAR

    @property
    def read_energy_pj_per_bit(self) -> float:
        return self.read_energy_j_per_byte / (PICOJOULE * BITS_PER_BYTE)

    @property
    def write_energy_pj_per_bit(self) -> float:
        return self.write_energy_j_per_byte / (PICOJOULE * BITS_PER_BYTE)

    def with_overrides(self, **kwargs) -> "TechnologyProfile":
        """A copy of this profile with some fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class MemoryTier:
    """A pool of one memory technology: capacity, bandwidth, profile.

    The pool is an accelerator's co-packaged stacks or one tier of the
    cluster hierarchy that placement policies reason about.

    Attributes
    ----------
    name:
        Tier label ("hbm", "mrm", "lpddr", "flash").
    capacity_bytes / read_bandwidth / write_bandwidth:
        Aggregate over every stack, package or device in the pool
        (bytes, bytes/s).
    profile:
        The technology: energy, refresh, retention and cost per GiB.
    """

    name: str
    capacity_bytes: int
    read_bandwidth: float
    write_bandwidth: float
    profile: TechnologyProfile

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"tier {self.name}: capacity must be positive")
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ValueError(f"tier {self.name}: bandwidth must be positive")

    @property
    def cost_usd(self) -> float:
        """Acquisition cost of the pool (capacity * $/GiB)."""
        return (self.capacity_bytes / GiB) * self.profile.cost_usd_per_gib

    @property
    def supports_managed_retention(self) -> bool:
        """True only for MRM tiers (placement policies may only put
        finite-lifetime data with relaxed integrity there)."""
        return self.profile.cell is CellKind.MRM

    def read_energy_j(self, size_bytes: Bytes) -> Joules:
        return size_bytes * self.profile.read_energy_j_per_byte

    def write_energy_j(self, size_bytes: Bytes) -> Joules:
        return size_bytes * self.profile.write_energy_j_per_byte

    def refresh_power_w(self) -> Watts:
        """Steady-state refresh power of the whole tier (0 for
        non-volatile tiers)."""
        if not self.profile.volatile:
            return 0.0
        per_interval = self.capacity_bytes * self.profile.write_energy_j_per_byte
        return per_interval / self.profile.refresh_interval_s


@dataclass
class AccessResult:
    """Outcome of a single device access."""

    kind: AccessKind
    address: int
    size_bytes: int
    latency_s: Seconds
    energy_j: Joules


@dataclass
class DeviceCounters:
    """Aggregate access accounting for one device."""

    reads: int = 0
    writes: int = 0
    refreshes: int = 0
    erases: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    bytes_refreshed: int = 0
    read_energy_j: Joules = 0.0
    write_energy_j: Joules = 0.0
    refresh_energy_j: Joules = 0.0


class DeviceFault(RuntimeError):
    """Base class for injected hardware failures (see :mod:`repro.faults`)."""


class BankFailure(DeviceFault):
    """A bank/zone of cells became unreadable; its data is lost."""

    def __init__(self, device: str, zone_id: int) -> None:
        super().__init__(f"{device}: zone {zone_id} failed (bank loss)")
        self.device = device
        self.zone_id = zone_id


class DeviceFailure(DeviceFault):
    """The whole device dropped off the fabric."""

    def __init__(self, device: str) -> None:
        super().__init__(f"{device}: device failed")
        self.device = device


@dataclass(frozen=True)
class FaultRateSpec:
    """Failure-event rates for one technology (see :mod:`repro.faults`).

    Rates use the units reliability datasheets use: soft events scale
    with capacity and time (per GiB per hour), hard failures are
    per-device (per year).  Zero everywhere means "never fails" — the
    happy-path model every experiment ran on before the fault framework.

    Attributes
    ----------
    retention_violations_per_gib_hour:
        Early-decay events (missed deadline / thermal excursion).
    bit_error_bursts_per_gib_hour:
        Transient raw-bit-error spikes on reads.
    bank_failures_per_device_year:
        Zone-granularity hard failures.
    device_failures_per_device_year:
        Whole-device losses.
    source:
        Citation for the numbers (RL008 provenance discipline).
    """

    retention_violations_per_gib_hour: float = 0.0
    bit_error_bursts_per_gib_hour: float = 0.0
    bank_failures_per_device_year: float = 0.0
    device_failures_per_device_year: float = 0.0
    source: str = ""

    def __post_init__(self) -> None:
        for attr in (
            "retention_violations_per_gib_hour",
            "bit_error_bursts_per_gib_hour",
            "bank_failures_per_device_year",
            "device_failures_per_device_year",
        ):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be >= 0")

    def scaled(self, multiplier: float) -> "FaultRateSpec":
        """All rates multiplied by ``multiplier`` (fault-rate sweeps)."""
        if multiplier < 0:
            raise ValueError("multiplier must be >= 0")
        return replace(
            self,
            retention_violations_per_gib_hour=(
                self.retention_violations_per_gib_hour * multiplier
            ),
            bit_error_bursts_per_gib_hour=(
                self.bit_error_bursts_per_gib_hour * multiplier
            ),
            bank_failures_per_device_year=(
                self.bank_failures_per_device_year * multiplier
            ),
            device_failures_per_device_year=(
                self.device_failures_per_device_year * multiplier
            ),
        )


class MemoryDevice:
    """Behavioural model of one memory device instance.

    Subclasses specialise timing/energy (refresh for DRAM, FTL for Flash,
    programmable retention for MRM) but share the accounting implemented
    here.

    Parameters
    ----------
    profile:
        The technology constants.
    capacity_bytes:
        Device capacity.
    """

    def __init__(
        self,
        profile: TechnologyProfile,
        capacity_bytes: int,
        name: str = "",
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.profile = profile
        self.capacity_bytes = int(capacity_bytes)
        self.name = name or profile.name
        self.counters = DeviceCounters()

    def _check_range(self, address: int, size_bytes: int) -> None:
        if address < 0 or size_bytes <= 0:
            raise ValueError(f"bad access: address={address} size={size_bytes}")
        if address + size_bytes > self.capacity_bytes:
            raise ValueError(
                f"{self.name}: access [{address}, {address + size_bytes}) "
                f"exceeds capacity {self.capacity_bytes}"
            )

    # ------------------------------------------------------------------
    # Timing/energy hooks (subclasses may override)
    # ------------------------------------------------------------------
    def _read_time(self, size_bytes: int) -> Seconds:
        return self.profile.read_latency_s + size_bytes / self.profile.read_bandwidth

    def _write_time(self, size_bytes: int) -> Seconds:
        return self.profile.write_latency_s + size_bytes / self.profile.write_bandwidth

    def _read_energy(self, size_bytes: int) -> Joules:
        return size_bytes * self.profile.read_energy_j_per_byte

    def _write_energy(self, size_bytes: int) -> Joules:
        return size_bytes * self.profile.write_energy_j_per_byte

    # ------------------------------------------------------------------
    # The access API
    # ------------------------------------------------------------------
    def read(self, address: int, size_bytes: int) -> AccessResult:
        """Account a read of ``size_bytes`` at ``address``."""
        self._check_range(address, size_bytes)
        latency = self._read_time(size_bytes)
        energy = self._read_energy(size_bytes)
        c = self.counters
        c.reads += 1
        c.bytes_read += size_bytes
        c.read_energy_j += energy
        return AccessResult(AccessKind.READ, address, size_bytes, latency, energy)

    def read_passes(
        self, ranges: Sequence[Tuple[int, int]], passes: int
    ) -> None:
        """Account ``passes`` sequential passes over ``ranges``.

        The bulk twin of calling :meth:`MemoryDevice.read` on every
        ``(address, size_bytes)`` range in order, pass after pass (a
        subclass that overrides :meth:`read` must not use it): each range is
        checked once, integer tallies multiply, and ``read_energy_j``
        adds each range's energy range by range, pass by pass, so it
        rounds exactly as the scalar loop does.
        """
        if passes < 0:
            raise ValueError("passes must be >= 0")
        energies = []
        for address, size_bytes in ranges:
            self._check_range(address, size_bytes)
            energies.append(self._read_energy(size_bytes))
        if not passes or not energies:
            return
        c = self.counters
        c.reads += passes * len(ranges)
        c.bytes_read += passes * sum(size for _address, size in ranges)
        # Fold whole passes in chunks of about _FOLD_CHUNK values, so
        # memory stays bounded however many passes there are.
        per_chunk = max(1, _FOLD_CHUNK // len(energies))
        chunk = np.tile(np.asarray(energies, dtype=np.float64), per_chunk)
        total = c.read_energy_j
        for done in range(0, passes, per_chunk):
            count = min(per_chunk, passes - done)
            total = fold_sum(total, chunk[: count * len(energies)])
        c.read_energy_j = total

    def write(self, address: int, size_bytes: int) -> AccessResult:
        """Account a write of ``size_bytes`` at ``address``."""
        self._check_range(address, size_bytes)
        latency = self._write_time(size_bytes)
        energy = self._write_energy(size_bytes)
        c = self.counters
        c.writes += 1
        c.bytes_written += size_bytes
        c.write_energy_j += energy
        return AccessResult(AccessKind.WRITE, address, size_bytes, latency, energy)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} {self.name} "
            f"{self.capacity_bytes / GiB:.1f} GiB>"
        )
