"""Dynamically Configurable Memory (DCM): retention chosen per write.

Section 4: "the control plane ... is best-placed to dynamically decide
the retention period needed for each data when it is written, effectively
right provisioning the MRM to the workload.  At the hardware level, the
memory controller would support writing at different durations and
energies, allowing retention time to be programmed at runtime."

A :class:`DCMPolicy` maps a :class:`~repro.core.placement.DataObject`'s
declared lifetime to the retention passed to
:meth:`~repro.core.mrm.MRMDevice.append`.  Three policies span the design
space the paper sketches:

- :class:`FixedRetentionPolicy` — the non-DCM baseline: every write at
  one strength (set it to 10 years to model an SCM device).
- :class:`RetentionClassPolicy` — hardware supports a small menu of
  retention classes; pick the cheapest class that covers the lifetime
  (a realistic controller design).
- :class:`LifetimeMatchedPolicy` — fully flexible DCM: program exactly
  the lifetime plus a safety margin.

:func:`evaluate_policy` scores a policy over a stream of objects:
write energy, total wear, and refreshes forced by under-provisioned
retention — the numbers experiment E8 compares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.mrm import MRMDevice
from repro.core.placement import DataObject
from repro.units import DAY, HOUR, MINUTE


#: Safety factor on a data object's lifetime: the retention a policy
#: must cover.
MARGIN = 1.2


class DCMPolicy:
    """Base: map a data object's lifetime to a programmed retention."""

    def retention_for(self, obj: DataObject) -> float:
        raise NotImplementedError


class FixedRetentionPolicy(DCMPolicy):
    """Every write at one fixed retention (the SCM / non-DCM baseline)."""

    def __init__(self, retention_s: float) -> None:
        if retention_s <= 0:
            raise ValueError("retention must be positive")
        self.retention_s = retention_s

    def retention_for(self, obj: DataObject) -> float:
        return self.retention_s

    @property
    def name(self) -> str:
        return f"fixed({self.retention_s:.0f}s)"


class RetentionClassPolicy(DCMPolicy):
    """A small menu of retention classes; the cheapest class covering the
    lifetime times :data:`MARGIN` wins.  Lifetimes longer than the top
    class get the top class (the scheduler will refresh)."""

    DEFAULT_CLASSES = (1 * MINUTE, 10 * MINUTE, 1 * HOUR, 6 * HOUR, 1 * DAY, 7 * DAY)

    def __init__(self, classes: Optional[Sequence[float]] = None) -> None:
        if classes is None:
            classes = self.DEFAULT_CLASSES
        classes = tuple(sorted(classes))
        if not classes or any(c <= 0 for c in classes):
            raise ValueError("retention classes must be positive")
        self.classes = classes

    def retention_for(self, obj: DataObject) -> float:
        needed = obj.lifetime_s * MARGIN
        for cls in self.classes:
            if cls >= needed:
                return cls
        return self.classes[-1]

    @property
    def name(self) -> str:
        return f"classes(n={len(self.classes)})"


class LifetimeMatchedPolicy(DCMPolicy):
    """Fully-flexible DCM: retention = lifetime × :data:`MARGIN`,
    clamped to the device envelope by the caller."""

    def retention_for(self, obj: DataObject) -> float:
        return obj.lifetime_s * MARGIN

    @property
    def name(self) -> str:
        return f"matched(x{MARGIN})"


@dataclass
class PolicyScore:
    """Cost of serving a workload under one DCM policy."""

    policy: str
    objects: int
    bytes_written: float
    write_energy_j: float
    damage_fraction: float  # total endurance consumed (sum over writes)
    refreshes: int  # writes re-done because retention < lifetime
    refresh_energy_j: float

    @property
    def total_energy_j(self) -> float:
        return self.write_energy_j + self.refresh_energy_j


def evaluate_policy(
    policy: DCMPolicy,
    objects: Sequence[DataObject],
    device: MRMDevice,
) -> PolicyScore:
    """Analytically score ``policy`` over a stream of data objects.

    For each object the policy picks a retention; the model charges the
    initial write plus any refreshes needed to cover the full lifetime
    (``ceil(lifetime / retention) - 1`` rewrites when under-provisioned).
    Wear is the damage fraction of every (re)write at that retention.
    The device's envelope clamps requested retentions.

    This is a closed-form evaluation (no event simulation) so policy
    sweeps stay fast; experiment E8 uses it directly.
    """
    cfg = device.config
    total_bytes = 0.0
    write_energy = 0.0
    refresh_energy = 0.0
    damage = 0.0
    refreshes = 0
    for obj in objects:
        retention = policy.retention_for(obj)
        retention = min(max(retention, cfg.min_retention_s), cfg.max_retention_s)
        writes_needed = max(1, math.ceil(obj.lifetime_s / retention))
        energy_each = device.write_energy_for(obj.size_bytes, retention)
        damage_each = (
            obj.size_bytes / cfg.block_bytes
        ) / device.endurance_at(retention)
        total_bytes += obj.size_bytes * writes_needed
        write_energy += energy_each
        refresh_energy += energy_each * (writes_needed - 1)
        refreshes += writes_needed - 1
        damage += damage_each * writes_needed
    return PolicyScore(
        policy=policy.name,
        objects=len(objects),
        bytes_written=total_bytes,
        write_energy_j=write_energy,
        damage_fraction=damage,
        refreshes=refreshes,
        refresh_energy_j=refresh_energy,
    )
