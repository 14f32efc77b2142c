"""AI-accelerator configurations.

An accelerator is, for this library's purposes, a peak compute rate plus
one or more attached memory tiers.  The defining constraint the paper
discusses — memory physically co-packaged for bandwidth, roughly a third
of package energy spent on memory — shows up here as per-tier bandwidth
and access-energy numbers taken from the device catalog.

Efficiency factors matter: real serving achieves well under peak.  The
``compute_efficiency`` (model FLOPs utilization, ~0.4-0.6 for good
serving stacks) and ``bandwidth_efficiency`` (~0.8) defaults give
realistic step times without modeling kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.devices.base import MemoryTier
from repro.devices.catalog import HBM3E
from repro.units import GiB


@dataclass(frozen=True)
class AcceleratorConfig:
    """One AI accelerator: compute peak plus memory tiers.

    Attributes
    ----------
    peak_flops:
        Dense peak at serving precision (FP16/BF16 unless noted).
    tiers:
        Memory tiers by name.  ``"hbm"`` must exist; the engine places
        weights/KV/activations across tiers per its placement map.
    compute_efficiency / bandwidth_efficiency:
        Achievable fraction of peak in steady serving.
    board_power_w:
        Package TDP, for tokens/joule accounting.
    """

    name: str
    peak_flops: float
    tiers: Tuple[MemoryTier, ...]
    compute_efficiency: float = 0.5
    bandwidth_efficiency: float = 0.8
    board_power_w: float = 700.0

    def __post_init__(self) -> None:
        if self.peak_flops <= 0:
            raise ValueError("peak FLOPs must be positive")
        if not self.tiers:
            raise ValueError("accelerator needs at least one memory tier")
        names = [t.name for t in self.tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names: {names}")
        if not 0 < self.compute_efficiency <= 1:
            raise ValueError("compute efficiency must be in (0, 1]")
        if not 0 < self.bandwidth_efficiency <= 1:
            raise ValueError("bandwidth efficiency must be in (0, 1]")

    def tier(self, name: str) -> MemoryTier:
        for tier in self.tiers:
            if tier.name == name:
                return tier
        raise KeyError(f"{self.name} has no tier {name!r}; has {[t.name for t in self.tiers]}")

    @property
    def tier_names(self) -> Tuple[str, ...]:
        return tuple(t.name for t in self.tiers)

    @property
    def effective_flops(self) -> float:
        return self.peak_flops * self.compute_efficiency

    def with_tiers(self, tiers: Tuple[MemoryTier, ...]) -> "AcceleratorConfig":
        """Copy of this accelerator with a different tier set (the knob
        the tiering experiments turn)."""
        return replace(self, tiers=tiers)


def _hbm_tier(capacity_bytes: int, bandwidth: float) -> MemoryTier:
    return MemoryTier("hbm", capacity_bytes, bandwidth, bandwidth, HBM3E)


#: NVIDIA A100 80GB (Splitwise's prefill-era hardware).
A100_80G = AcceleratorConfig(
    name="a100-80g",
    peak_flops=312e12,
    tiers=(_hbm_tier(80 * GiB, 2.0e12),),
    board_power_w=400.0,
)

#: NVIDIA H100 80GB SXM.
H100_80G = AcceleratorConfig(
    name="h100-80g",
    peak_flops=990e12,
    tiers=(_hbm_tier(80 * GiB, 3.35e12),),
    board_power_w=700.0,
)

#: NVIDIA B200: 192 GB HBM3e at 8 TB/s [51].
B200 = AcceleratorConfig(
    name="b200",
    peak_flops=2.25e15,
    tiers=(_hbm_tier(192 * GiB, 8.0e12),),
    board_power_w=1000.0,
)
