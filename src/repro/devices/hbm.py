"""HBM model: 3D-stacked DRAM with yield and scaling-wall modeling.

HBM is DRAM plus 3D stacking: the stack multiplies capacity and bandwidth
but compounds manufacturing yield (every layer and every TSV bond must be
good) and concentrates heat next to the accelerator die.  Section 2.1 of
the paper leans on three facts this module models:

1. per-layer density scaling has slowed (~+30% for HBM4 over HBM3e);
2. stacking is not expected to exceed 16 layers [50];
3. stack yield falls geometrically with layer count, which is a large
   part of HBM's cost premium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.devices.catalog import HBM3E
from repro.devices.dram import DRAMDevice
from repro.units import GiB

#: Probability that one layer (die + bond) is good.
PER_LAYER_YIELD = 0.97
#: Probability that the base logic die is good.
BASE_YIELD = 0.95


@dataclass(frozen=True)
class HBMGeneration:
    """One generation of the HBM roadmap."""

    name: str
    capacity_per_layer_bytes: int
    max_layers: int
    bandwidth_per_stack: float  # bytes/s

    def max_stack_capacity(self) -> int:
        return self.capacity_per_layer_bytes * self.max_layers


#: The public roadmap the paper cites: HBM4 layer capacity is only ~30%
#: above HBM3e [50], and the industry does not expect >16 layers.
HBM_ROADMAP: List[HBMGeneration] = [
    HBMGeneration("hbm3", capacity_per_layer_bytes=2 * GiB, max_layers=12,  # [50]
                  bandwidth_per_stack=0.82e12),  # 0.82 TB/s/stack [50]
    HBMGeneration("hbm3e", capacity_per_layer_bytes=3 * GiB, max_layers=12,  # [50]
                  bandwidth_per_stack=1.18e12),  # 1.18 TB/s/stack [51]
    HBMGeneration("hbm4", capacity_per_layer_bytes=4 * GiB, max_layers=16,  # [50]
                  bandwidth_per_stack=1.6e12),  # ~+30% per layer [50]
    HBMGeneration("hbm4e", capacity_per_layer_bytes=5 * GiB, max_layers=16,  # [50]
                  bandwidth_per_stack=2.0e12),  # roadmap extrapolation [50]
]


class HBMStack(DRAMDevice):
    """One HBM3e stack: ``layers`` DRAM dies bonded over a base logic die.

    Capacity and bandwidth scale with layer count; yield decays
    geometrically with it.  Cost per GiB is derived from the yield model,
    reproducing HBM's cost premium over planar DRAM.

    Parameters
    ----------
    layers:
        DRAM die count in the stack (8-16 for current products).
    capacity_per_layer_bytes:
        Die capacity (3 GiB for HBM3e).
    """

    def __init__(
        self,
        layers: int = 8,
        capacity_per_layer_bytes: int = 3 * GiB,
        temperature_c: float = 95.0,  # in-package next to an accelerator
        name: str = "",
    ) -> None:
        if layers < 1:
            raise ValueError("an HBM stack needs at least one layer")
        super().__init__(
            profile=HBM3E,
            capacity_bytes=layers * capacity_per_layer_bytes,
            temperature_c=temperature_c,
            name=name or f"{HBM3E.name}-{layers}hi",
        )
        self.layers = layers
        self.capacity_per_layer_bytes = capacity_per_layer_bytes

    # ------------------------------------------------------------------
    # Yield / cost model
    # ------------------------------------------------------------------
    def stack_yield(self) -> float:
        """Probability the whole stack is good:
        ``BASE_YIELD * PER_LAYER_YIELD ** layers``."""
        return BASE_YIELD * PER_LAYER_YIELD**self.layers

    def cost_multiplier_vs_planar(self) -> float:
        """Cost-per-bit multiplier relative to planar DRAM dies.

        A failed stack scraps every die in it, so cost per *good* bit is
        the planar cost divided by stack yield, plus a packaging adder
        that grows with layer count (TSV processing, thinning, bonding).
        """
        packaging_adder = 1.0 + 0.05 * self.layers
        return packaging_adder / self.stack_yield()

    def heat_flux_w_per_cm2(self, die_area_cm2: float = 1.21, active_power_w: float = 12.0) -> float:
        """Crude heat-flux figure: stacking concentrates the same areal
        footprint over more active dies, worsening dissipation."""
        if die_area_cm2 <= 0:
            raise ValueError("die area must be positive")
        return active_power_w * self.layers / (die_area_cm2 * self.layers**0.5)

    # ------------------------------------------------------------------
    # Roadmap helpers (experiment E11)
    # ------------------------------------------------------------------
    @staticmethod
    def stacks_needed(model_bytes: int, generation: HBMGeneration) -> int:
        """Stacks required to hold ``model_bytes`` in one generation."""
        if model_bytes <= 0:
            raise ValueError("model size must be positive")
        return math.ceil(model_bytes / generation.max_stack_capacity())
