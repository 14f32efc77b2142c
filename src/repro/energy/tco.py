"""Total cost of ownership and tokens per dollar.

"Similar to storage infrastructure, storage capacity and total cost of
ownership (TCO)/TB are key metrics, on which HBM is underperforming"
(Section 3), and the goal is "to maximize tokens generated per dollar"
(Section 5).

:class:`TCOModel` amortizes capex (accelerators + memory tiers) over a
deployment lifetime and adds energy opex (with PUE), yielding cost per
token / tokens per dollar for a measured or modeled serving rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.tiering.tiers import MemoryTier
from repro.units import KWH, YEAR


@dataclass(frozen=True)
class TCOReport:
    """Cost breakdown of one deployment configuration."""

    name: str
    lifetime_s: float
    capex_accelerators_usd: float
    capex_memory_usd: float
    opex_energy_usd: float
    tokens_served: float

    @property
    def total_usd(self) -> float:
        return (
            self.capex_accelerators_usd
            + self.capex_memory_usd
            + self.opex_energy_usd
        )

    @property
    def tokens_per_dollar(self) -> float:
        if self.total_usd == 0:
            return 0.0
        return self.tokens_served / self.total_usd

    @property
    def cost_per_million_tokens(self) -> float:
        if self.tokens_served == 0:
            return float("inf")
        return self.total_usd / (self.tokens_served / 1e6)

    @property
    def memory_capex_fraction(self) -> float:
        """The paper's "HBM accounts for a substantial fraction of an AI
        cluster's cost" — memory share of capex."""
        capex = self.capex_accelerators_usd + self.capex_memory_usd
        if capex == 0:
            return 0.0
        return self.capex_memory_usd / capex


@dataclass
class TCOModel:
    """Deployment cost model.

    Attributes
    ----------
    accelerator_cost_usd:
        Per accelerator (compute die + packaging, *excluding* memory —
        memory is priced from the tier list so configurations with
        different memory mixes compare fairly).
    electricity_usd_per_kwh / pue:
        Datacenter energy price and power usage effectiveness.
    lifetime_s:
        Amortization horizon (the paper's 5-year device lifetime).
    """

    accelerator_cost_usd: float = 25_000.0
    electricity_usd_per_kwh: float = 0.08
    pue: float = 1.2
    lifetime_s: float = 5 * YEAR

    def __post_init__(self) -> None:
        if self.accelerator_cost_usd < 0 or self.electricity_usd_per_kwh < 0:
            raise ValueError("costs must be >= 0")
        if self.pue < 1.0:
            raise ValueError("PUE is >= 1 by definition")
        if self.lifetime_s <= 0:
            raise ValueError("lifetime must be positive")

    def report(
        self,
        name: str,
        num_accelerators: int,
        tiers: Sequence[MemoryTier],
        mean_power_w: float,
        tokens_per_s: float,
    ) -> TCOReport:
        """Cost a steady-state deployment.

        ``mean_power_w`` is the whole deployment's average draw
        (accelerators + memory); ``tokens_per_s`` its sustained serving
        rate.
        """
        if num_accelerators < 1:
            raise ValueError("need at least one accelerator")
        if mean_power_w < 0 or tokens_per_s < 0:
            raise ValueError("power and rate must be >= 0")
        energy_j = mean_power_w * self.pue * self.lifetime_s
        opex = energy_j / KWH * self.electricity_usd_per_kwh
        return TCOReport(
            name=name,
            lifetime_s=self.lifetime_s,
            capex_accelerators_usd=num_accelerators * self.accelerator_cost_usd,
            capex_memory_usd=sum(t.cost_usd for t in tiers),
            opex_energy_usd=opex,
            tokens_served=tokens_per_s * self.lifetime_s,
        )
