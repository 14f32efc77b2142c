"""Software wear-leveling for MRM zones.

MRM pushes wear-leveling out of the device and into the control plane
(Section 4: "much of the functionality that is typically handled on the
device ... can be left up to a software control plane higher up in the
stack").  The control plane levels wear simply by *choosing which zone to
open next*: since zones are append-only and reset as a unit, steering new
write streams to the least-damaged empty zone is sufficient — no
background data movement, no write amplification.

:class:`WearLeveler` implements that allocation policy plus the metrics
used to evaluate it (damage imbalance, projected device lifetime).
"""

from __future__ import annotations

from repro.core.mrm import MRMDevice
from repro.core.zones import Zone


class WearLeveler:
    """Zone-allocation wear-leveling policy over one MRM device.

    Policies
    --------
    ``"least-worn"`` (default)
        Open the empty zone with the lowest peak damage.
    ``"round-robin"``
        Cycle through zones in order (the naive baseline; skews badly
        when streams have different retention strengths).
    ``"first-fit"``
        Always the lowest-numbered empty zone (the no-leveling baseline).
    """

    POLICIES = ("least-worn", "round-robin", "first-fit")

    def __init__(self, device: MRMDevice, policy: str = "least-worn") -> None:
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {self.POLICIES}")
        self.device = device
        self.policy = policy
        self._rr_cursor = 0

    def pick_zone(self) -> Zone:
        """Choose the next zone to open for a new write stream.

        Raises ``RuntimeError`` when no empty zone exists (the caller
        must reset an expired zone first).
        """
        failed = self.device.failed_zones
        empty = [
            z for z in self.device.space.empty_zones()
            if z.zone_id not in failed
        ]
        if not empty:
            raise RuntimeError("no empty zones available; reset expired zones first")
        if self.policy == "least-worn":
            return min(empty, key=lambda z: self.device.zone_damage(z.zone_id))
        if self.policy == "round-robin":
            empty_ids = {z.zone_id for z in empty}
            n = self.device.space.num_zones
            for offset in range(n):
                candidate = (self._rr_cursor + offset) % n
                if candidate in empty_ids:
                    self._rr_cursor = (candidate + 1) % n
                    return self.device.space.zone(candidate)
            raise AssertionError("unreachable: empty list was non-empty")
        # first-fit
        return min(empty, key=lambda z: z.zone_id)

    # ------------------------------------------------------------------
    # Evaluation metrics
    # ------------------------------------------------------------------
    def damage_imbalance(self) -> float:
        """Peak/mean damage ratio; 1.0 is perfectly level."""
        mean = self.device.mean_damage
        if mean <= 0:
            return 1.0
        return self.device.max_damage / mean

    def projected_lifetime_writes(self) -> float:
        """How many more block writes (at the historical damage mix) fit
        before the most-worn slot hits end of life.

        Infinity when nothing has been written yet.
        """
        device = self.device
        if device.blocks_written == 0 or device.max_damage <= 0:
            return float("inf")
        damage_per_write = device.max_damage / device.blocks_written
        remaining = max(0.0, 1.0 - device.max_damage)
        return remaining / damage_per_write
