"""The refresh-or-expire deadline scheduler.

Section 4: "The scheduler will need to track the data expiration times,
and decide whether to refresh it or move it to another tier based on the
state of the requests that depend on that data."

:class:`RefreshScheduler` is that component.  Blocks are registered with
their deadline and a *liveness callback* — a control-plane predicate that
answers "does anything still need this data?" at decision time.  At each
deadline the scheduler makes a :class:`RefreshDecision`:

- ``REFRESH`` — data still needed: rewrite in place (pay one block
  write) and re-arm the deadline;
- ``EXPIRE``  — nothing needs it: let it decay; zero energy, and the
  zone becomes reclaimable;
- ``MIGRATE`` — data still needed but this device should not keep it
  (e.g. wear pressure); the caller moves it to another tier.

Deadlines are kept in a heap with lazy invalidation, so refresh-then-
re-arm and explicit deregistration are O(log n).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.mrm import MRMDevice
from repro.core.zones import Block, BlockState


class RefreshDecision(enum.Enum):
    REFRESH = "refresh"
    EXPIRE = "expire"
    MIGRATE = "migrate"


@dataclass
class RefreshStats:
    """Tally of scheduler decisions and their cost."""

    refreshed: int = 0
    expired: int = 0
    migrated: int = 0
    refresh_energy_j: float = 0.0


#: Liveness predicate: (block, now) -> is the data still needed?
LivenessFn = Callable[[Block, float], bool]


class RefreshScheduler:
    """Deadline-driven refresh/expire/migrate scheduler for one device.

    Parameters
    ----------
    device:
        The MRM device whose blocks are being managed.
    guard_band:
        Fraction of the retention period by which decisions run *early*
        (0.1 = act at 90% of the deadline) so data never silently decays
        past spec while a decision is pending.
    wear_migration_threshold:
        If the block's slot damage exceeds this fraction, prefer
        ``MIGRATE`` over ``REFRESH`` to stop hammering a dying slot.
    """

    def __init__(
        self,
        device: MRMDevice,
        guard_band: float = 0.1,
        wear_migration_threshold: float = 0.9,
    ) -> None:
        if not 0.0 <= guard_band < 1.0:
            raise ValueError("guard band must be in [0, 1)")
        self.device = device
        self.guard_band = guard_band
        self.wear_migration_threshold = wear_migration_threshold
        self.stats = RefreshStats()
        self._heap: List[Tuple[float, int, Block]] = []
        self._seq = itertools.count()
        self._liveness: Dict[int, LivenessFn] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def decision_time(self, block: Block) -> float:
        """When to decide for this block: deadline minus the guard band."""
        return block.written_at + block.retention_s * (1.0 - self.guard_band)

    def register(self, block: Block, liveness: LivenessFn) -> None:
        """Track a block; ``liveness`` is asked at each decision point."""
        self._liveness[id(block)] = liveness
        heapq.heappush(self._heap, (self.decision_time(block), next(self._seq), block))

    def deregister(self, block: Block) -> None:
        """Stop tracking (data deleted/moved by the caller). Lazy: the
        heap entry is skipped when popped."""
        self._liveness.pop(id(block), None)

    def pending(self) -> int:
        """Blocks still tracked."""
        return len(self._liveness)

    def next_decision_time(self) -> Optional[float]:
        """Earliest pending decision, or None."""
        while self._heap:
            when, _seq, block = self._heap[0]
            if id(block) in self._liveness and block.state is BlockState.VALID:
                return when
            heapq.heappop(self._heap)  # lazy-invalidated entry
        return None

    # ------------------------------------------------------------------
    # The decision loop
    # ------------------------------------------------------------------
    def run_until(self, now: float) -> List[Tuple[Block, RefreshDecision]]:
        """Process every decision due at or before ``now``.

        Returns the (block, decision) pairs made, in order.  ``MIGRATE``
        blocks are deregistered — the caller owns the move.
        """
        made: List[Tuple[Block, RefreshDecision]] = []
        while True:
            when = self.next_decision_time()
            if when is None or when > now:
                break
            _when, _seq, block = heapq.heappop(self._heap)
            liveness = self._liveness.get(id(block))
            if liveness is None or block.state is not BlockState.VALID:
                continue
            decision = self._decide(block, _when, liveness)
            made.append((block, decision))
        return made

    def _decide(
        self, block: Block, now: float, liveness: LivenessFn
    ) -> RefreshDecision:
        if not liveness(block, now):
            self.device.mark_expired(block)
            self.deregister(block)
            self.stats.expired += 1
            return RefreshDecision.EXPIRE
        damage = self.device.damage_of(block.zone_id, block.index)
        if damage >= self.wear_migration_threshold:
            self.deregister(block)
            self.stats.migrated += 1
            return RefreshDecision.MIGRATE
        result = self.device.refresh_block(block, now)
        self.stats.refreshed += 1
        self.stats.refresh_energy_j += result.energy_j
        heapq.heappush(
            self._heap, (self.decision_time(block), next(self._seq), block)
        )
        return RefreshDecision.REFRESH
