"""Total cost of ownership and tokens per dollar.

"Similar to storage infrastructure, storage capacity and total cost of
ownership (TCO)/TB are key metrics, on which HBM is underperforming"
(Section 3), and the goal is "to maximize tokens generated per dollar"
(Section 5).

:func:`tco_report` amortizes capex (accelerators + memory tiers) over a
deployment lifetime and adds energy opex (with PUE), yielding cost per
token / tokens per dollar for a measured or modeled serving rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.devices.base import MemoryTier
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


#: Per accelerator (compute die + packaging, *excluding* memory: memory
#: is priced from the tier list so configurations with different memory
#: mixes compare fairly).
ACCELERATOR_COST_USD = 25_000.0
#: Datacenter energy price and power usage effectiveness.
ELECTRICITY_USD_PER_KWH = 0.08
PUE = 1.2
#: Amortization horizon (the paper's 5-year device lifetime).
LIFETIME_S = 5 * YEAR


def tco_report(
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
    energy_j = mean_power_w * PUE * LIFETIME_S
    opex = energy_j / KWH * ELECTRICITY_USD_PER_KWH
    return TCOReport(
        name=name,
        lifetime_s=LIFETIME_S,
        capex_accelerators_usd=num_accelerators * ACCELERATOR_COST_USD,
        capex_memory_usd=sum(t.cost_usd for t in tiers),
        opex_energy_usd=opex,
        tokens_served=tokens_per_s * LIFETIME_S,
    )
