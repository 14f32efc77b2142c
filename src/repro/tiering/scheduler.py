"""The retention-aware tier manager.

This is the cluster-level scheduler Section 4 describes: it "track[s]
the data expiration times, and decide[s] whether to refresh it or move
it to another tier based on the state of the requests that depend on
that data".

:class:`TierManager` manages a population of data objects over
(explicit) time across a tier set:

- **admit(obj, now)** — place a new object by policy;
- **touch(obj, now)** — record continued use (extends the needed-until
  horizon);
- **tick(now)** — at each object's retention deadline on an MRM tier,
  choose among:

  - *refresh* — still needed, refresh is cheaper than moving;
  - *migrate* — still needed, but moving (e.g. to LPDDR) beats paying
    refreshes (data went cold);
  - *drop* — nothing needs it (context ended): free the space.

The refresh-vs-migrate economics compare the energy of refreshing on
MRM for the remaining horizon against one move plus residence on the
destination tier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.core.placement import DataObject
from repro.devices.base import MemoryTier
from repro.obs import NULL_REGISTRY


@dataclass
class TierManagerStats:
    admitted: int = 0
    refreshed: int = 0
    migrated: int = 0
    dropped: int = 0
    refresh_energy_j: float = 0.0
    migration_energy_j: float = 0.0
    bytes_dropped: int = 0


@dataclass
class _Resident:
    """A placed object plus its management state."""

    obj: DataObject
    tier: MemoryTier
    written_at: float
    needed_until: float

    def deadline(self) -> float:
        """Next retention deadline (inf on non-managed tiers)."""
        if not self.tier.supports_managed_retention:
            return math.inf
        return self.written_at + self.tier.profile.retention_s


class TierManager:
    """Lifetime-and-deadline-driven tier management.

    Parameters
    ----------
    tiers:
        The tier set; an MRM tier is recognized by
        ``supports_managed_retention``.  Cold data migrates to the
        ``"lpddr"`` tier, if the set has one.
    """

    def __init__(self, tiers: List[MemoryTier], obs=None) -> None:
        if not tiers:
            raise ValueError("need at least one tier")
        self.tiers = {t.name: t for t in tiers}
        if len(self.tiers) != len(tiers):
            raise ValueError("duplicate tier names")
        self.demotion_tier = "lpddr" if "lpddr" in self.tiers else None
        self.stats = TierManagerStats()
        self._residents: Dict[int, _Resident] = {}
        self._used: Dict[str, int] = {name: 0 for name in self.tiers}
        self.obs = obs if obs is not None else NULL_REGISTRY
        o = self.obs
        self._obs_admitted = o.counter("tier.objects_admitted_total")
        self._obs_refreshed = o.counter("tier.refreshes_total")
        self._obs_migrated = o.counter("tier.migrations_total")
        self._obs_dropped = o.counter("tier.objects_dropped_total")
        self._obs_bytes_dropped = o.counter("tier.bytes_dropped_total")
        self._obs_refresh_energy = o.counter("tier.refresh_energy_j_total")
        self._obs_migration_energy = o.counter("tier.migration_energy_j_total")
        # Per-tier occupancy gauges, updated on every charge/refund.
        self._obs_used: Dict[str, object] = {
            name: o.gauge("tier.bytes_used", tier=name) for name in self.tiers
        }

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def used_bytes(self, tier_name: str) -> int:
        return self._used[tier_name]

    def free_bytes(self, tier_name: str) -> int:
        return self.tiers[tier_name].capacity_bytes - self._used[tier_name]

    def _charge(self, tier: MemoryTier, obj: DataObject) -> None:
        if self.free_bytes(tier.name) < obj.size_bytes:
            raise RuntimeError(
                f"tier {tier.name} full ({self.free_bytes(tier.name)} B free, "
                f"need {obj.size_bytes})"
            )
        self._used[tier.name] += obj.size_bytes
        self._obs_used[tier.name].set(self._used[tier.name])

    def _refund(self, tier: MemoryTier, obj: DataObject) -> None:
        self._used[tier.name] -= obj.size_bytes
        if self._used[tier.name] < 0:
            raise AssertionError(f"negative usage on {tier.name}")
        self._obs_used[tier.name].set(self._used[tier.name])

    # ------------------------------------------------------------------
    # Object lifecycle
    # ------------------------------------------------------------------
    def admit(self, obj: DataObject, tier_name: str, now: float) -> None:
        """Place ``obj`` on ``tier_name`` at time ``now``."""
        if obj.object_id in self._residents:
            raise ValueError(f"object {obj.name} already resident")
        tier = self.tiers[tier_name]
        self._charge(tier, obj)
        self._residents[obj.object_id] = _Resident(
            obj=obj,
            tier=tier,
            written_at=now,
            needed_until=now + obj.lifetime_s,
        )
        self.stats.admitted += 1
        self._obs_admitted.add()

    def touch(self, obj: DataObject, now: float) -> None:
        """The object is still in use: extend its needed-until horizon
        to one more lifetime from ``now``."""
        resident = self._resident(obj)
        resident.needed_until = max(
            resident.needed_until, now + obj.lifetime_s
        )

    def remove(self, obj: DataObject) -> None:
        """Explicit removal (context finished, model unloaded)."""
        resident = self._residents.pop(obj.object_id, None)
        if resident is None:
            raise KeyError(f"object {obj.name} is not resident")
        self._refund(resident.tier, obj)
        self.stats.dropped += 1
        self.stats.bytes_dropped += obj.size_bytes
        self._obs_dropped.add()
        self._obs_bytes_dropped.add(obj.size_bytes)

    def tier_of(self, obj: DataObject) -> str:
        return self._resident(obj).tier.name

    def _resident(self, obj: DataObject) -> _Resident:
        resident = self._residents.get(obj.object_id)
        if resident is None:
            raise KeyError(f"object {obj.name} is not resident")
        return resident

    def resident_count(self) -> int:
        return len(self._residents)

    # ------------------------------------------------------------------
    # Deadline decisions
    # ------------------------------------------------------------------
    def tick(self, now: float) -> Dict[str, int]:
        """Process every retention deadline due at or before ``now``."""
        actions = {"refreshed": 0, "migrated": 0, "dropped": 0}
        # Deadlines may cascade (refresh re-arms); loop until quiescent.
        # Visit residents in sorted object-id order: _decide accumulates
        # float energy into shared stats, and float addition is not
        # associative, so insertion-order iteration would make the
        # totals depend on admission history.  _decide may also pop
        # entries mid-cascade, hence the .get() guard.
        progress = True
        while progress:
            progress = False
            for object_id in sorted(self._residents):
                resident = self._residents.get(object_id)
                if resident is None or resident.deadline() > now:
                    continue
                self._decide(resident, resident.deadline(), actions)
                progress = True
        return actions

    def _decide(self, resident: _Resident, when: float, actions: Dict[str, int]) -> None:
        obj = resident.obj
        if resident.needed_until <= when:
            # Nothing depends on the data any more: let it expire.
            self._residents.pop(obj.object_id)
            self._refund(resident.tier, obj)
            self.stats.dropped += 1
            self.stats.bytes_dropped += obj.size_bytes
            self._obs_dropped.add()
            self._obs_bytes_dropped.add(obj.size_bytes)
            actions["dropped"] += 1
            return
        if self._should_migrate(resident, when):
            self._migrate(resident, when)
            actions["migrated"] += 1
        else:
            self._refresh(resident, when)
            actions["refreshed"] += 1

    def _refresh(self, resident: _Resident, when: float) -> None:
        energy = resident.tier.write_energy_j(resident.obj.size_bytes)
        self.stats.refreshed += 1
        self.stats.refresh_energy_j += energy
        self._obs_refreshed.add()
        self._obs_refresh_energy.add(energy)
        resident.written_at = when

    def _should_migrate(self, resident: _Resident, when: float) -> bool:
        """Migrate when, over the remaining horizon, one move costs less
        than staying: staying pays per-deadline refreshes; moving pays
        the transfer *plus* every future read at the destination tier's
        (usually worse) read energy.  Hot data therefore stays put even
        when refreshes are pricey — only data that went cold demotes.
        """
        if self.demotion_tier is None:
            return False
        destination = self.tiers[self.demotion_tier]
        if destination.name == resident.tier.name:
            return False
        obj = resident.obj
        if self.free_bytes(destination.name) < obj.size_bytes:
            return False
        remaining = resident.needed_until - when
        retention = resident.tier.profile.retention_s
        refreshes_ahead = math.ceil(remaining / retention)
        refresh_cost = refreshes_ahead * resident.tier.write_energy_j(obj.size_bytes)
        read_energy_delta = (
            destination.profile.read_energy_j_per_byte
            - resident.tier.profile.read_energy_j_per_byte
        )
        future_read_penalty = max(
            0.0, remaining * obj.access.read_bytes_per_s * read_energy_delta
        )
        move_cost = (
            resident.tier.read_energy_j(obj.size_bytes)
            + destination.write_energy_j(obj.size_bytes)
            + future_read_penalty
        )
        return move_cost < refresh_cost

    def _migrate(self, resident: _Resident, when: float) -> None:
        destination = self.tiers[self.demotion_tier]
        obj = resident.obj
        self._refund(resident.tier, obj)
        self._charge(destination, obj)
        energy = resident.tier.read_energy_j(obj.size_bytes)
        energy += destination.write_energy_j(obj.size_bytes)
        self.stats.migrated += 1
        self.stats.migration_energy_j += energy
        self._obs_migrated.add()
        self._obs_migration_energy.add(energy)
        resident.tier = destination
        resident.written_at = when
