"""Retention-aware data placement and scheduling across memory tiers.

Section 4: "MRM is unlikely to be a one-size-fits-all solution, and will
co-exist with other types of memory, such as HBM for write-heavy data
structures (e.g., activations), and LPDDR as a slower tier.  Fine-grained
understanding of lifetime and access patterns of the data will be
required to lay out the data."

- :mod:`~repro.tiering.tiers` — cluster-level tier descriptions and
  builders (HBM, MRM, LPDDR, Flash).
- :mod:`~repro.tiering.policy` — placement policies mapping
  :class:`~repro.core.placement.DataObject` to tiers: all-HBM baseline,
  static kind-based, lifetime/access-aware, cost-greedy.
- :mod:`~repro.tiering.scheduler` — the retention-aware tier manager:
  admission, expiry-driven demotion/drop, refresh-vs-migrate economics.
"""

from repro.tiering.tiers import (
    MemoryTier,
    flash_tier,
    hbm_tier,
    lpddr_tier,
    mrm_tier,
)
from repro.tiering.policy import (
    AllHBMPolicy,
    CostGreedyPolicy,
    KindBasedPolicy,
    LifetimeAwarePolicy,
    Placement,
    PlacementError,
    PlacementPolicy,
)
from repro.tiering.scheduler import TierManager, TierManagerStats
from repro.tiering.offload import (
    ConversationShape,
    OffloadScore,
    OffloadSimulator,
)

__all__ = [
    "AllHBMPolicy",
    "ConversationShape",
    "CostGreedyPolicy",
    "OffloadScore",
    "OffloadSimulator",
    "KindBasedPolicy",
    "LifetimeAwarePolicy",
    "MemoryTier",
    "Placement",
    "PlacementError",
    "PlacementPolicy",
    "TierManager",
    "TierManagerStats",
    "flash_tier",
    "hbm_tier",
    "lpddr_tier",
    "mrm_tier",
]
