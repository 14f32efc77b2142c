"""Cluster-level memory tiers and the one MRM technology point.

A :class:`~repro.devices.base.MemoryTier` is a pool of one memory
technology with aggregate capacity and bandwidth — the granularity
placement policies reason at.  Builders construct the tiers the paper's
hierarchy sketch names: HBM (fast, expensive, refresh-burdened), MRM
(dense, read-fast, retention-managed), LPDDR (cheap capacity), Flash
(cold storage floor).

:data:`MRM_PROFILE` is the MRM technology point every experiment uses:
the potential-RRAM cell relaxed to :data:`MRM_TIER_RETENTION_S` via
:class:`~repro.core.retention.RetentionModel`, so tiering and serving
experiments inherit the same physics as the device model.  Two builders
size it: :func:`mrm_tier` (a cluster pool) and
:func:`copackaged_mrm_tier` (the tier an accelerator carries next to its
HBM).
"""

from __future__ import annotations

from repro.core.retention import RetentionModel
from repro.devices.base import MemoryTier
from repro.devices.catalog import HBM3E, LPDDR5X, NAND_SLC, RRAM_POTENTIAL
from repro.units import GiB, HOUR, TiB


def hbm_tier(capacity_bytes: int) -> MemoryTier:
    """An HBM3e pool; bandwidth scales with stack count, sized from
    capacity at 24 GiB/stack."""
    stacks = max(1, round(capacity_bytes / (24 * GiB)))
    bandwidth = stacks * HBM3E.read_bandwidth
    return MemoryTier("hbm", capacity_bytes, bandwidth, bandwidth, HBM3E)


#: MRM's assumed $/GiB as a fraction of HBM's.  The paper argues MRM
#: improves TCO/TB via density (stacking without capacitors, crossbar,
#: MLC) and simpler manufacturing than HBM.
MRM_COST_DISCOUNT_VS_HBM = 0.4
#: The retention MRM cells are programmed for: long enough to hold
#: weights and session KV across serving, short enough to buy the
#: paper's write-energy/density relaxation (Section 3).
MRM_TIER_RETENTION_S = 6 * HOUR

#: The MRM technology point: RRAM's potential profile relaxed to
#: :data:`MRM_TIER_RETENTION_S`, priced at
#: :data:`MRM_COST_DISCOUNT_VS_HBM` of HBM's cost per bit.
MRM_PROFILE = RetentionModel(RRAM_POTENTIAL).profile_at(
    MRM_TIER_RETENTION_S, name=f"mrm@{MRM_TIER_RETENTION_S / HOUR:.0f}h"
).with_overrides(
    cost_usd_per_gib=HBM3E.cost_usd_per_gib * MRM_COST_DISCOUNT_VS_HBM
)


def mrm_tier(capacity_bytes: int) -> MemoryTier:
    """A cluster MRM pool of :data:`MRM_PROFILE`.

    Bandwidth scales with the pool size, like HBM stacks.
    """
    # Pool bandwidth: one MRM "stack-equivalent" per 24 GiB, like HBM.
    # Reads stream from all 12 stacked dies in parallel (the metric MRM
    # optimizes); writes are program-power-limited to ~2 concurrent dies
    # per stack — the write throughput the paper explicitly trades away.
    units = max(1, round(capacity_bytes / (24 * GiB)))
    return MemoryTier(
        "mrm",
        capacity_bytes,
        units * MRM_PROFILE.read_bandwidth * 12,
        units * MRM_PROFILE.write_bandwidth * 2,
        MRM_PROFILE,
    )


def copackaged_mrm_tier(hbm: MemoryTier, capacity_bytes: int) -> MemoryTier:
    """The MRM tier an accelerator carries next to its ``hbm`` tier.

    Read bandwidth matches HBM (co-packaged target, Section 3); write
    bandwidth is an eighth — the write performance MRM deliberately
    forfeits.
    """
    return MemoryTier(
        "mrm",
        capacity_bytes,
        hbm.read_bandwidth,
        hbm.read_bandwidth / 8,
        MRM_PROFILE,
    )


def lpddr_tier(capacity_bytes: int) -> MemoryTier:
    """An LPDDR5X pool (GB200-style capacity tier [35]), sized at
    32 GiB/package."""
    packages = max(1, round(capacity_bytes / (32 * GiB)))
    bandwidth = packages * LPDDR5X.read_bandwidth
    return MemoryTier("lpddr", capacity_bytes, bandwidth, bandwidth, LPDDR5X)


def flash_tier(capacity_bytes: int) -> MemoryTier:
    """An SLC-NAND pool (the cold floor; mostly a foil in experiments).

    One device per TiB.
    """
    devices = max(1, round(capacity_bytes / TiB))
    return MemoryTier(
        "flash",
        capacity_bytes,
        devices * NAND_SLC.read_bandwidth,
        devices * NAND_SLC.write_bandwidth,
        NAND_SLC,
    )
