"""Retention-aware data placement and scheduling across memory tiers.

Section 4: "MRM is unlikely to be a one-size-fits-all solution, and will
co-exist with other types of memory, such as HBM for write-heavy data
structures (e.g., activations), and LPDDR as a slower tier.  Fine-grained
understanding of lifetime and access patterns of the data will be
required to lay out the data."

- :mod:`~repro.tiering.tiers` — the MRM technology point and the tier
  builders (HBM, MRM, LPDDR, Flash, and an accelerator's co-packaged
  MRM).
- :mod:`~repro.tiering.policy` — placement policies mapping
  :class:`~repro.core.placement.DataObject` to tiers: all-HBM baseline,
  static kind-based, lifetime/access-aware, cost-greedy.
- :mod:`~repro.tiering.scheduler` — the retention-aware tier manager:
  admission, expiry-driven demotion/drop, refresh-vs-migrate economics.
"""

from repro.tiering.tiers import (
    MRM_PROFILE,
    copackaged_mrm_tier,
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
    "MRM_PROFILE",
    "Placement",
    "PlacementError",
    "PlacementPolicy",
    "TierManager",
    "TierManagerStats",
    "copackaged_mrm_tier",
    "flash_tier",
    "hbm_tier",
    "lpddr_tier",
    "mrm_tier",
]
