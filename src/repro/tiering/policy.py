"""Placement policies: which tier gets which data object.

A policy maps a set of :class:`~repro.core.placement.DataObject` to a
:class:`Placement` over a set of :class:`~repro.devices.base.MemoryTier`,
subject to capacity.  Implemented policies span the paper's argument:

- :class:`AllHBMPolicy` — today's baseline: everything in HBM.
- :class:`KindBasedPolicy` — the static layout Section 4 sketches:
  weights and KV cache on MRM, activations (write-heavy) on HBM,
  overflow to LPDDR.
- :class:`LifetimeAwarePolicy` — the general rule the static layout
  approximates: objects whose lifetime exceeds a threshold *and* whose
  traffic is read-dominated go to MRM; short-lived or write-heavy data
  stays on HBM; cold data falls to the cheapest tier.
- :class:`CostGreedyPolicy` — an explicit optimization baseline: sort
  objects by read-bandwidth demand per byte (hot first), fill the
  fastest tiers first.  Shows the lifetime-aware rule is near the
  cost-driven optimum for this workload.

Placements validate capacity and compute per-tier bandwidth demand so
experiments can flag infeasible (bandwidth-starved) layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.placement import DataKind, DataObject
from repro.devices.base import MemoryTier


class PlacementError(RuntimeError):
    """No feasible placement (capacity exhausted)."""


@dataclass
class Placement:
    """An assignment of objects to tiers with derived accounting."""

    tiers: Tuple[MemoryTier, ...]
    assignment: Dict[int, str] = field(default_factory=dict)  # object_id -> tier
    _objects: Dict[int, DataObject] = field(default_factory=dict)

    def tier_of(self, obj: DataObject) -> MemoryTier:
        name = self.assignment.get(obj.object_id)
        if name is None:
            raise KeyError(f"object {obj.name} is not placed")
        return self._tier_by_name(name)

    def _tier_by_name(self, name: str) -> MemoryTier:
        for tier in self.tiers:
            if tier.name == name:
                return tier
        raise KeyError(f"unknown tier {name!r}")

    def assign(self, obj: DataObject, tier: MemoryTier) -> None:
        if self.used_bytes(tier.name) + obj.size_bytes > tier.capacity_bytes:
            raise PlacementError(
                f"{obj.name} ({obj.size_bytes} B) does not fit tier "
                f"{tier.name} ({self.free_bytes(tier.name)} B free)"
            )
        self.assignment[obj.object_id] = tier.name
        self._objects[obj.object_id] = obj

    def objects_on(self, tier_name: str) -> List[DataObject]:
        return [
            self._objects[oid]
            for oid, name in self.assignment.items()
            if name == tier_name
        ]

    def used_bytes(self, tier_name: str) -> int:
        return sum(o.size_bytes for o in self.objects_on(tier_name))

    def free_bytes(self, tier_name: str) -> int:
        return self._tier_by_name(tier_name).capacity_bytes - self.used_bytes(
            tier_name
        )

    # ------------------------------------------------------------------
    # Feasibility / cost accounting
    # ------------------------------------------------------------------
    def read_bandwidth_demand(self, tier_name: str) -> float:
        return sum(o.access.read_bytes_per_s for o in self.objects_on(tier_name))

    def write_bandwidth_demand(self, tier_name: str) -> float:
        return sum(o.access.write_bytes_per_s for o in self.objects_on(tier_name))

    def bandwidth_feasible(self) -> bool:
        """True if every tier's demand fits its sustained bandwidth."""
        for tier in self.tiers:
            if self.read_bandwidth_demand(tier.name) > tier.read_bandwidth:
                return False
            if self.write_bandwidth_demand(tier.name) > tier.write_bandwidth:
                return False
        return True

    def bottleneck(self) -> Tuple[str, float]:
        """The tier with the highest read-bandwidth utilization, and the
        utilization itself (>1 means infeasible)."""
        worst = ("", 0.0)
        for tier in self.tiers:
            util = self.read_bandwidth_demand(tier.name) / tier.read_bandwidth
            if util > worst[1]:
                worst = (tier.name, util)
        return worst

    def refresh_power_w(self) -> float:
        """Refresh power of volatile tiers (whole-tier, DRAM refreshes
        everything whether used or not)."""
        return sum(tier.refresh_power_w() for tier in self.tiers)


class PlacementPolicy:
    """Base: place a set of objects across tiers."""

    name = "base"

    def place(
        self, objects: Sequence[DataObject], tiers: Sequence[MemoryTier]
    ) -> Placement:
        raise NotImplementedError

    @staticmethod
    def _fit_with_overflow(
        placement: Placement,
        obj: DataObject,
        preferred: Sequence[MemoryTier],
    ) -> None:
        """Assign to the first preferred tier with room; raise if none."""
        for tier in preferred:
            if placement.free_bytes(tier.name) >= obj.size_bytes:
                placement.assign(obj, tier)
                return
        raise PlacementError(
            f"no tier can hold {obj.name} ({obj.size_bytes} B); "
            f"free: {[(t.name, placement.free_bytes(t.name)) for t in preferred]}"
        )


class AllHBMPolicy(PlacementPolicy):
    """Everything on HBM (today's deployment)."""

    name = "all-hbm"

    def place(self, objects, tiers) -> Placement:
        placement = Placement(tuple(tiers))
        hbm = [t for t in tiers if t.name == "hbm"]
        if not hbm:
            raise PlacementError("all-hbm policy requires an hbm tier")
        others = [t for t in tiers if t.name != "hbm"]
        for obj in objects:
            self._fit_with_overflow(placement, obj, hbm + others)
        return placement


class KindBasedPolicy(PlacementPolicy):
    """The static Section-4 layout: weights+KV to MRM, activations to
    HBM, overflow down the hierarchy."""

    name = "kind-based"

    def place(self, objects, tiers) -> Placement:
        placement = Placement(tuple(tiers))
        by_name = {t.name: t for t in tiers}
        mrm_first = [
            by_name[n] for n in ("mrm", "hbm", "lpddr", "flash") if n in by_name
        ]
        hbm_first = [
            by_name[n] for n in ("hbm", "mrm", "lpddr", "flash") if n in by_name
        ]
        for obj in objects:
            if obj.kind in (DataKind.WEIGHTS, DataKind.KV_CACHE):
                self._fit_with_overflow(placement, obj, mrm_first)
            else:
                self._fit_with_overflow(placement, obj, hbm_first)
        return placement


class LifetimeAwarePolicy(PlacementPolicy):
    """The general retention-aware rule.

    An object goes to MRM when its lifetime clears
    :attr:`MIN_MRM_LIFETIME_S` (retention management must be worth it)
    and its read:write ratio clears :attr:`MIN_READ_WRITE_RATIO` (MRM's
    slow writes must not hurt); write-heavy or ephemeral data stays on
    HBM; data whose read demand is under :attr:`COLD_READ_BW` (bytes/s)
    may fall to LPDDR.
    """

    name = "lifetime-aware"
    MIN_MRM_LIFETIME_S = 60.0
    MIN_READ_WRITE_RATIO = 100.0
    COLD_READ_BW = 1e9

    def place(self, objects, tiers) -> Placement:
        placement = Placement(tuple(tiers))
        by_name = {t.name: t for t in tiers}

        def chain(*names: str) -> List[MemoryTier]:
            return [by_name[n] for n in names if n in by_name]

        for obj in objects:
            mrm_worthy = (
                obj.lifetime_s >= self.MIN_MRM_LIFETIME_S
                and obj.access.read_write_ratio >= self.MIN_READ_WRITE_RATIO
            )
            cold = obj.access.read_bytes_per_s < self.COLD_READ_BW
            if mrm_worthy and not cold:
                preferred = chain("mrm", "hbm", "lpddr", "flash")
            elif cold:
                preferred = chain("lpddr", "mrm", "flash", "hbm")
            else:
                preferred = chain("hbm", "mrm", "lpddr", "flash")
            self._fit_with_overflow(placement, obj, preferred)
        return placement


class CostGreedyPolicy(PlacementPolicy):
    """Bandwidth-greedy baseline: hottest bytes onto the fastest tiers.

    Objects sort by read bandwidth per byte (descending); tiers sort by
    read bandwidth per byte of capacity (descending); first fit.
    """

    name = "cost-greedy"

    def place(self, objects, tiers) -> Placement:
        placement = Placement(tuple(tiers))
        ranked_tiers = sorted(
            tiers,
            key=lambda t: t.read_bandwidth / t.capacity_bytes,
            reverse=True,
        )
        ranked_objects = sorted(
            objects,
            key=lambda o: o.access.read_bytes_per_s / o.size_bytes,
            reverse=True,
        )
        for obj in ranked_objects:
            self._fit_with_overflow(placement, obj, ranked_tiers)
        return placement
