"""Model deployment: the cost of the write performance MRM trades away.

Section 2: "When a new model is deployed, the cluster stops accepting
new requests, services ongoing ones, then loads weights for the new
model."  MRM's central bargain *forfeits write performance* — so the
honest question is what that costs at the one moment the workload
writes in bulk: the weight swap.

:class:`ModelSwapModel` computes, for a tier technology and an update
cadence:

- **drain time** — serving out the in-flight contexts (independent of
  memory technology);
- **load time** — ``weights_bytes / tier write bandwidth`` (this is
  where MRM is slower);
- **availability** — fraction of wall time the replica serves, given
  swaps every ``update_interval``;
- **wear budget** — endurance consumed by a lifetime of swaps at the
  tier's retention point.

The paper's trade is safe exactly when the availability loss stays
negligible at realistic cadences ("currently typically low (hours+)")
— which bench A9 asserts — and becomes visible at the paper's extreme
once-per-second bound, which the same bench also shows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.base import MemoryTier
from repro.units import YEAR
from repro.workload.model import ModelConfig


@dataclass(frozen=True)
class SwapCost:
    """One technology's model-swap economics."""

    tier: str
    drain_time_s: float
    load_time_s: float
    update_interval_s: float
    lifetime_s: float

    @property
    def downtime_s(self) -> float:
        """Unavailable seconds per swap (drain overlaps serving; the
        replica is only dark while weights load)."""
        return self.load_time_s

    @property
    def availability(self) -> float:
        """Fraction of wall time serving, at the update cadence."""
        cycle = self.update_interval_s
        if cycle <= 0:
            return 0.0
        return max(0.0, 1.0 - self.downtime_s / cycle)


class ModelSwapModel:
    """Swap economics for a model on a given memory tier.

    Parameters
    ----------
    model:
        The deployed model (weights size).
    mean_outstanding_decode_s:
        Expected time to serve out in-flight contexts when the drain
        begins (median request's remaining decode; ~tens of seconds).
    """

    def __init__(
        self,
        model: ModelConfig,
        mean_outstanding_decode_s: float = 30.0,
    ) -> None:
        if mean_outstanding_decode_s < 0:
            raise ValueError("drain time must be >= 0")
        self.model = model
        self.mean_outstanding_decode_s = mean_outstanding_decode_s

    def swap_cost(
        self,
        tier: MemoryTier,
        update_interval_s: float,
        lifetime_s: float = 5 * YEAR,
    ) -> SwapCost:
        """Cost of swapping on ``tier`` at a given cadence."""
        if update_interval_s <= 0 or lifetime_s <= 0:
            raise ValueError("intervals must be positive")
        load_time = self.model.weights_bytes / tier.write_bandwidth
        return SwapCost(
            tier=tier.name,
            drain_time_s=self.mean_outstanding_decode_s,
            load_time_s=load_time,
            update_interval_s=update_interval_s,
            lifetime_s=lifetime_s,
        )

    def endurance_consumed(
        self,
        tier: MemoryTier,
        update_interval_s: float,
        lifetime_s: float = 5 * YEAR,
    ) -> float:
        """Fraction of the tier's cell endurance a lifetime of swaps
        burns (each swap rewrites every weight cell once)."""
        swaps = lifetime_s / update_interval_s
        return swaps / tier.profile.endurance_cycles
