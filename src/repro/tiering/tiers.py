"""Cluster-level memory tiers.

A :class:`MemoryTier` is a pool of one memory technology with aggregate
capacity and bandwidth — the granularity placement policies reason at.
Builders construct the tiers the paper's hierarchy sketch names: HBM
(fast, expensive, refresh-burdened), MRM (dense, read-fast, retention-
managed), LPDDR (cheap capacity), Flash (cold storage floor).

The MRM tier is built *from* a reference SCM technology at a chosen
retention point via :class:`~repro.core.retention.RetentionModel` — so
tiering experiments inherit the same physics as the device model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.retention import RetentionModel
from repro.devices.base import TechnologyProfile
from repro.devices.catalog import HBM3E, LPDDR5X, NAND_SLC, RRAM_POTENTIAL
from repro.units import Bytes, GiB, HOUR, Joules, TiB, Watts


@dataclass(frozen=True)
class MemoryTier:
    """One tier of the cluster memory hierarchy.

    Attributes
    ----------
    name / profile:
        Identity and underlying technology.
    capacity_bytes:
        Aggregate pool size.
    read_bandwidth / write_bandwidth:
        Aggregate sustained bandwidth (bytes/s).
    cost_usd:
        Acquisition cost of the pool (capacity * $/GiB).
    supports_managed_retention:
        True only for MRM tiers (placement policies may only put
        finite-lifetime data with relaxed integrity there).
    """

    name: str
    profile: TechnologyProfile
    capacity_bytes: int
    read_bandwidth: float
    write_bandwidth: float
    cost_usd: float
    supports_managed_retention: bool = False

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"tier {self.name}: capacity must be positive")
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ValueError(f"tier {self.name}: bandwidth must be positive")

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


def hbm_tier(capacity_bytes: int) -> MemoryTier:
    """An HBM3e pool; bandwidth scales with stack count, sized from
    capacity at 24 GiB/stack."""
    stacks = max(1, round(capacity_bytes / (24 * GiB)))
    bandwidth = stacks * HBM3E.read_bandwidth
    return MemoryTier(
        name="hbm",
        profile=HBM3E,
        capacity_bytes=capacity_bytes,
        read_bandwidth=bandwidth,
        write_bandwidth=bandwidth,
        cost_usd=(capacity_bytes / GiB) * HBM3E.cost_usd_per_gib,
    )


#: MRM's assumed $/GiB as a fraction of HBM's.  The paper argues MRM
#: improves TCO/TB via density (stacking without capacitors, crossbar,
#: MLC) and simpler manufacturing than HBM.
MRM_COST_DISCOUNT_VS_HBM = 0.4
#: The retention an MRM tier's cells are programmed for.
MRM_TIER_RETENTION_S = 6 * HOUR


def mrm_tier(capacity_bytes: int) -> MemoryTier:
    """An MRM pool derived from RRAM's potential profile at
    :data:`MRM_TIER_RETENTION_S`, priced at
    :data:`MRM_COST_DISCOUNT_VS_HBM` of HBM's cost per bit.  Read
    bandwidth is the derived profile's, scaled to the pool size like HBM
    stacks.
    """
    retention_s = MRM_TIER_RETENTION_S
    model = RetentionModel(RRAM_POTENTIAL)
    profile = model.profile_at(retention_s, name=f"mrm@{retention_s:.0f}s")
    # Pool bandwidth: one MRM "stack-equivalent" per 24 GiB, like HBM.
    # Reads stream from all 12 stacked dies in parallel (the metric MRM
    # optimizes); writes are program-power-limited to ~2 concurrent dies
    # per stack — the write throughput the paper explicitly trades away.
    units = max(1, round(capacity_bytes / (24 * GiB)))
    return MemoryTier(
        name="mrm",
        profile=profile,
        capacity_bytes=capacity_bytes,
        read_bandwidth=units * profile.read_bandwidth * 12,
        write_bandwidth=units * profile.write_bandwidth * 2,
        cost_usd=(capacity_bytes / GiB)
        * HBM3E.cost_usd_per_gib
        * MRM_COST_DISCOUNT_VS_HBM,
        supports_managed_retention=True,
    )


def lpddr_tier(capacity_bytes: int) -> MemoryTier:
    """An LPDDR5X pool (GB200-style capacity tier [35]), sized at
    32 GiB/package."""
    packages = max(1, round(capacity_bytes / (32 * GiB)))
    bandwidth = packages * LPDDR5X.read_bandwidth
    return MemoryTier(
        name="lpddr",
        profile=LPDDR5X,
        capacity_bytes=capacity_bytes,
        read_bandwidth=bandwidth,
        write_bandwidth=bandwidth,
        cost_usd=(capacity_bytes / GiB) * LPDDR5X.cost_usd_per_gib,
    )


def flash_tier(capacity_bytes: int, devices: Optional[int] = None) -> MemoryTier:
    """An SLC-NAND pool (the cold floor; mostly a foil in experiments)."""
    if devices is None:
        devices = max(1, round(capacity_bytes / TiB))
    return MemoryTier(
        name="flash",
        profile=NAND_SLC,
        capacity_bytes=capacity_bytes,
        read_bandwidth=devices * NAND_SLC.read_bandwidth,
        write_bandwidth=devices * NAND_SLC.write_bandwidth,
        cost_usd=(capacity_bytes / GiB) * NAND_SLC.cost_usd_per_gib,
    )
