"""Memory-technology device models.

This package is the substrate the paper's analysis runs on: parameterized
models of every memory/storage technology the paper compares.

Every technology — DRAM, HBM, LPDDR, NAND/NOR Flash, and the resistive
SCM candidates PCM, RRAM and STT-MRAM — has a
:class:`~repro.devices.base.TechnologyProfile` (constants: retention,
endurance, latency, bandwidth, energy/bit, cost) recorded in
:mod:`~repro.devices.catalog` with the source of each number.  The
technologies the experiments drive access by access also have a
behavioural :class:`~repro.devices.base.MemoryDevice` subclass that
accounts accesses and energy: DRAM (:mod:`~repro.devices.dram`),
3D-stacked HBM (:mod:`~repro.devices.hbm`) and NAND Flash
(:mod:`~repro.devices.flash`).  The MRM device itself lives in
:mod:`repro.core.mrm`.

The catalog distinguishes *product* endurance (what shipped devices
deliver) from *technology-potential* endurance (what the cell technology
has demonstrated in the literature) — the distinction Figure 1 of the
paper turns on.
"""

from repro.devices.base import (
    AccessKind,
    AccessResult,
    CellKind,
    MemoryDevice,
    MemoryTier,
    TechnologyProfile,
)
from repro.devices.catalog import (
    PRODUCT_ENDURANCE,
    TECHNOLOGY_POTENTIAL_ENDURANCE,
    all_profiles,
    get_profile,
)
from repro.devices.dram import DRAMDevice
from repro.devices.flash import FlashDevice, FlashTranslationLayer
from repro.devices.hbm import HBMStack

__all__ = [
    "AccessKind",
    "AccessResult",
    "CellKind",
    "DRAMDevice",
    "FlashDevice",
    "FlashTranslationLayer",
    "HBMStack",
    "MemoryDevice",
    "MemoryTier",
    "PRODUCT_ENDURANCE",
    "TECHNOLOGY_POTENTIAL_ENDURANCE",
    "TechnologyProfile",
    "all_profiles",
    "get_profile",
]
