"""Energy and TCO modeling.

"Approximately a third of the energy usage for an AI accelerator is the
memory" (Section 2.1), and "power efficiency is perhaps the most
important metric" (Section 3).  This package turns byte traffic and
residency into joules and dollars:

- :mod:`~repro.energy.model` — memory-subsystem energy breakdown
  (access + refresh + static) and the accelerator-package split.
- :mod:`~repro.energy.tco` — total cost of ownership: capex (tier
  hardware, accelerators) + opex (energy at datacenter rates), and the
  paper's figure of merit, tokens per dollar.
"""

from repro.energy.model import (
    AcceleratorEnergyBreakdown,
    MemoryEnergyBreakdown,
    accelerator_energy_split,
    memory_energy,
)
from repro.energy.tco import TCOReport, tco_report

__all__ = [
    "AcceleratorEnergyBreakdown",
    "MemoryEnergyBreakdown",
    "TCOReport",
    "accelerator_energy_split",
    "memory_energy",
    "tco_report",
]
