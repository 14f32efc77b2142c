"""Catalog of memory-technology constants, with sources.

Every number the paper's analysis consumes lives here, so experiments are
a function of an auditable table rather than magic constants scattered
through code.  Numbers come from public datasheets, the papers the MRM
paper cites, and widely reported product specs; each profile records its
source.  Absolute values are approximate — the experiments reproduce the
*shape* of the paper's comparisons (orders of magnitude, who wins), which
is robust to datasheet-level uncertainty.

Two views matter for Figure 1:

- :data:`PRODUCT_ENDURANCE` — write endurance of *shipped devices*
  (Intel Optane PCM, Weebit RRAM, Everspin STT-MRAM, NAND Flash, HBM).
- :data:`TECHNOLOGY_POTENTIAL_ENDURANCE` — endurance the *cell
  technology* has demonstrated in the literature (Meena et al. overview,
  Lee et al. HfOx, Sun's memory-hierarchy survey).

The paper's observation is precisely the gap between the two: products
were engineered for 10-year non-volatility and sacrificed endurance;
the cells themselves can do far better when retention is relaxed.
"""

from __future__ import annotations

from typing import Dict, List

from repro.devices.base import CellKind, FaultRateSpec, TechnologyProfile
from repro.units import (
    KiB,
    MiB,
    MILLISECOND,
    MICROSECOND,
    NANOSECOND,
    YEAR,
    pj_per_bit_to_j_per_byte,
)

# A convenient alias: "non-volatile" in datasheets means >= 10 years.
TEN_YEARS = 10 * YEAR

_PROFILES: Dict[str, TechnologyProfile] = {}


def _register(profile: TechnologyProfile) -> TechnologyProfile:
    if profile.name in _PROFILES:
        raise ValueError(f"duplicate profile {profile.name!r}")
    _PROFILES[profile.name] = profile
    return profile


# ---------------------------------------------------------------------------
# DRAM family (volatile, refresh-bound)
# ---------------------------------------------------------------------------
DDR5 = _register(
    TechnologyProfile(
        name="ddr5",
        cell=CellKind.DRAM,
        retention_s=64 * MILLISECOND,
        endurance_cycles=1e16,  # effectively unlimited
        read_latency_s=50 * NANOSECOND,
        write_latency_s=50 * NANOSECOND,
        read_bandwidth=51.2e9,  # one DDR5-6400 channel
        write_bandwidth=51.2e9,
        read_energy_j_per_byte=pj_per_bit_to_j_per_byte(15.0),
        write_energy_j_per_byte=pj_per_bit_to_j_per_byte(15.0),
        refresh_interval_s=64 * MILLISECOND,
        static_power_w_per_gib=0.08,
        byte_addressable=True,
        access_granularity_bytes=64,
        cost_usd_per_gib=3.0,
        density_gbit_per_mm2=0.3,
        source="DDR5-6400 datasheets; ~15 pJ/bit off-package access energy",
    )
)

HBM3E = _register(
    TechnologyProfile(
        name="hbm3e",
        cell=CellKind.DRAM,
        retention_s=32 * MILLISECOND,  # hotter in-package -> faster refresh
        endurance_cycles=1e16,
        read_latency_s=100 * NANOSECOND,
        write_latency_s=100 * NANOSECOND,
        read_bandwidth=1.18e12,  # per 8-high stack (B200 carries 8 stacks -> 8 TB/s)
        write_bandwidth=1.18e12,
        read_energy_j_per_byte=pj_per_bit_to_j_per_byte(3.9),
        write_energy_j_per_byte=pj_per_bit_to_j_per_byte(3.9),
        refresh_interval_s=32 * MILLISECOND,
        static_power_w_per_gib=0.10,
        byte_addressable=True,
        access_granularity_bytes=64,
        cost_usd_per_gib=15.0,  # ~3-5x DDR per bit; yield-limited
        density_gbit_per_mm2=0.28,  # per layer; stacking multiplies capacity not area
        source="HBM3e stack specs (1.18 TB/s, 24 GB); B200 8 TB/s / 192 GB [51]",
    )
)

LPDDR5X = _register(
    TechnologyProfile(
        name="lpddr5x",
        cell=CellKind.DRAM,
        retention_s=64 * MILLISECOND,
        endurance_cycles=1e16,
        read_latency_s=60 * NANOSECOND,
        write_latency_s=60 * NANOSECOND,
        read_bandwidth=68.3e9,  # per x64 package at 8533 MT/s
        write_bandwidth=68.3e9,
        read_energy_j_per_byte=pj_per_bit_to_j_per_byte(6.0),
        write_energy_j_per_byte=pj_per_bit_to_j_per_byte(6.0),
        refresh_interval_s=64 * MILLISECOND,
        static_power_w_per_gib=0.04,
        byte_addressable=True,
        access_granularity_bytes=64,
        cost_usd_per_gib=2.5,
        density_gbit_per_mm2=0.35,
        source="LPDDR5X-8533 packages; GB200 LPDDR5 tier [35]",
    )
)

# ---------------------------------------------------------------------------
# Flash family (non-volatile storage)
# ---------------------------------------------------------------------------
NAND_SLC = _register(
    TechnologyProfile(
        name="nand-slc",
        cell=CellKind.NAND_FLASH,
        retention_s=TEN_YEARS,
        endurance_cycles=1e5,
        read_latency_s=25 * MICROSECOND,
        write_latency_s=200 * MICROSECOND,
        read_bandwidth=7.0e9,  # fast NVMe device, sequential
        write_bandwidth=4.0e9,
        read_energy_j_per_byte=pj_per_bit_to_j_per_byte(60.0),
        write_energy_j_per_byte=pj_per_bit_to_j_per_byte(500.0),
        refresh_interval_s=None,
        static_power_w_per_gib=0.005,
        byte_addressable=False,
        access_granularity_bytes=16 * KiB,  # page
        erase_block_bytes=4 * MiB,
        cost_usd_per_gib=0.30,
        density_gbit_per_mm2=1.0,
        source="SLC NAND: 100K P/E cycles [7]; NVMe-class device throughput",
    )
)

NAND_TLC = _register(
    TechnologyProfile(
        name="nand-tlc",
        cell=CellKind.NAND_FLASH,
        retention_s=1 * YEAR,  # retention drops as cells near rated cycles
        endurance_cycles=3e3,
        read_latency_s=60 * MICROSECOND,
        write_latency_s=600 * MICROSECOND,
        read_bandwidth=7.0e9,
        write_bandwidth=2.0e9,
        read_energy_j_per_byte=pj_per_bit_to_j_per_byte(80.0),
        write_energy_j_per_byte=pj_per_bit_to_j_per_byte(700.0),
        refresh_interval_s=None,
        byte_addressable=False,
        access_granularity_bytes=16 * KiB,
        erase_block_bytes=8 * MiB,
        static_power_w_per_gib=0.004,
        cost_usd_per_gib=0.05,
        density_gbit_per_mm2=3.0,
        source="Mainstream 3D TLC NAND: ~3K P/E cycles",
    )
)

NOR_FLASH = _register(
    TechnologyProfile(
        name="nor-flash",
        cell=CellKind.NOR_FLASH,
        retention_s=TEN_YEARS * 2,
        endurance_cycles=1e5,
        read_latency_s=100 * NANOSECOND,
        write_latency_s=10 * MICROSECOND,  # word program
        read_bandwidth=0.4e9,
        write_bandwidth=2.0e6,  # programming is very slow
        read_energy_j_per_byte=pj_per_bit_to_j_per_byte(30.0),
        write_energy_j_per_byte=pj_per_bit_to_j_per_byte(2000.0),
        refresh_interval_s=None,
        byte_addressable=True,
        access_granularity_bytes=1,
        erase_block_bytes=64 * KiB,
        static_power_w_per_gib=0.002,
        cost_usd_per_gib=2.0,
        density_gbit_per_mm2=0.05,
        source="Embedded NOR datasheets: byte reads, slow sector-erase writes",
    )
)

# ---------------------------------------------------------------------------
# Resistive SCM candidates — products (engineered for 10-year retention)
# ---------------------------------------------------------------------------
PCM_OPTANE = _register(
    TechnologyProfile(
        name="pcm-optane",
        cell=CellKind.PCM,
        retention_s=TEN_YEARS,
        endurance_cycles=1e6,  # Optane DIMM media endurance [5]
        read_latency_s=300 * NANOSECOND,
        write_latency_s=1 * MICROSECOND,
        read_bandwidth=6.8e9,  # per 256 GB DC PMM DIMM, sequential read
        write_bandwidth=2.3e9,
        read_energy_j_per_byte=pj_per_bit_to_j_per_byte(25.0),
        write_energy_j_per_byte=pj_per_bit_to_j_per_byte(250.0),  # RESET melt current
        refresh_interval_s=None,
        byte_addressable=True,
        access_granularity_bytes=256,  # Optane internal 256 B access unit
        static_power_w_per_gib=0.02,
        cost_usd_per_gib=4.0,
        density_gbit_per_mm2=0.55,
        source="Intel Optane DC PMM specs [5, 16]; Lee et al. PCM energy [24]",
    )
)

RRAM_WEEBIT = _register(
    TechnologyProfile(
        name="rram-weebit",
        cell=CellKind.RRAM,
        retention_s=TEN_YEARS,
        endurance_cycles=1e5,  # Weebit embedded ReRAM product spec [32]
        read_latency_s=200 * NANOSECOND,
        write_latency_s=10 * MICROSECOND,  # program-verify loops for 10-y retention
        read_bandwidth=0.5e9,  # embedded-class macro
        write_bandwidth=0.02e9,
        read_energy_j_per_byte=pj_per_bit_to_j_per_byte(10.0),
        write_energy_j_per_byte=pj_per_bit_to_j_per_byte(400.0),
        refresh_interval_s=None,
        byte_addressable=True,
        access_granularity_bytes=32,
        static_power_w_per_gib=0.01,
        cost_usd_per_gib=8.0,
        density_gbit_per_mm2=0.4,
        source="Weebit embedded ReRAM [32]; high-temp retention trades endurance [34]",
    )
)

STTMRAM_EVERSPIN = _register(
    TechnologyProfile(
        name="sttmram-everspin",
        cell=CellKind.STT_MRAM,
        retention_s=TEN_YEARS,
        endurance_cycles=1e10,  # Everspin STT-MRAM rated cycles [39]
        read_latency_s=35 * NANOSECOND,
        write_latency_s=90 * NANOSECOND,
        read_bandwidth=3.2e9,  # xSPI/DDR-class part
        write_bandwidth=1.6e9,
        read_energy_j_per_byte=pj_per_bit_to_j_per_byte(12.0),
        write_energy_j_per_byte=pj_per_bit_to_j_per_byte(150.0),
        refresh_interval_s=None,
        byte_addressable=True,
        access_granularity_bytes=32,
        static_power_w_per_gib=0.01,
        cost_usd_per_gib=100.0,  # MRAM remains low-density/expensive
        density_gbit_per_mm2=0.02,
        source="Everspin 2x nm STT-MRAM arrays [39]",
    )
)

# ---------------------------------------------------------------------------
# Resistive SCM candidates — technology potential (literature demonstrations)
# ---------------------------------------------------------------------------
# Read energy for the potential profiles reflects the paper's Section 3
# claim: "PCM, RRAM, and STT-MRAM have read performance and energy on
# par or better than DRAM or even SRAM [28]" — shipped products pay
# interface/periphery overheads the cell does not.
PCM_POTENTIAL = _register(
    PCM_OPTANE.with_overrides(
        name="pcm-potential",
        endurance_cycles=1e9,  # demonstrated cell endurance [24, 30]
        read_latency_s=50 * NANOSECOND,
        write_latency_s=150 * NANOSECOND,
        read_energy_j_per_byte=pj_per_bit_to_j_per_byte(5.0),  # [28]
        write_energy_j_per_byte=pj_per_bit_to_j_per_byte(60.0),
        read_bandwidth=100e9,
        write_bandwidth=20e9,
        source="PCM cell demonstrations: 1e8-1e9 cycles [24, 30]; read energy [28]",
    )
)

RRAM_POTENTIAL = _register(
    RRAM_WEEBIT.with_overrides(
        name="rram-potential",
        endurance_cycles=1e12,  # HfOx sub-ns switching, high endurance [25, 30]
        read_latency_s=20 * NANOSECOND,
        write_latency_s=50 * NANOSECOND,
        read_energy_j_per_byte=pj_per_bit_to_j_per_byte(3.0),  # [28]
        write_energy_j_per_byte=pj_per_bit_to_j_per_byte(20.0),
        read_bandwidth=200e9,
        write_bandwidth=50e9,
        density_gbit_per_mm2=0.9,  # crossbar, transistor-less [56]
        source="HfOx RRAM demos [25]; crossbar density [56]; read energy [28]",
    )
)

STTMRAM_POTENTIAL = _register(
    STTMRAM_EVERSPIN.with_overrides(
        name="sttmram-potential",
        endurance_cycles=1e15,  # near-unlimited demonstrated [30, 47]
        read_latency_s=5 * NANOSECOND,
        write_latency_s=10 * NANOSECOND,
        read_energy_j_per_byte=pj_per_bit_to_j_per_byte(3.0),  # [28]
        write_energy_j_per_byte=pj_per_bit_to_j_per_byte(30.0),
        read_bandwidth=400e9,
        write_bandwidth=100e9,
        source="STT-MRAM relaxed-retention designs [43, 48]; read energy [28]",
    )
)


# ---------------------------------------------------------------------------
# Fault rates (consumed by repro.faults)
# ---------------------------------------------------------------------------
# Soft-event rates are anchored to the field-study ballpark for DRAM-class
# parts (~25-70 correctable FIT/Mbit, i.e. order 1e-3 events/GiB/hour) and
# scaled by each family's relative error proneness; hard-failure rates are
# the ~2-4% AFR ballpark reported for deployed DIMMs/SSDs.  Like the
# profile numbers above, the absolute values are approximate — the fault
# experiments sweep a rate *multiplier*, so they reproduce shapes (how
# fast availability degrades, whether mitigations help), not field AFRs.
_DRAM_FAULTS = FaultRateSpec(
    retention_violations_per_gib_hour=1e-4,
    bit_error_bursts_per_gib_hour=2e-3,
    bank_failures_per_device_year=0.02,
    device_failures_per_device_year=0.01,
    source="DRAM field studies: Schroeder et al. SIGMETRICS'09 error rates",
)

_FLASH_FAULTS = FaultRateSpec(
    retention_violations_per_gib_hour=5e-4,
    bit_error_bursts_per_gib_hour=5e-3,
    bank_failures_per_device_year=0.04,
    device_failures_per_device_year=0.02,
    source="SSD field studies: Meza et al. SIGMETRICS'15 failure rates",
)

_RESISTIVE_FAULTS = FaultRateSpec(
    retention_violations_per_gib_hour=1e-3,
    bit_error_bursts_per_gib_hour=5e-3,
    bank_failures_per_device_year=0.03,
    device_failures_per_device_year=0.015,
    source="Resistive-memory drift/RTN literature [25, 34]; rates between "
    "DRAM and Flash since managed retention trades margin for cost",
)

#: Per-profile fault rates.  MRM derives from the resistive families, so
#: every resistive profile (product and potential) shares that spec.
FAULT_RATES: Dict[str, FaultRateSpec] = {
    "ddr5": _DRAM_FAULTS,
    "hbm3e": _DRAM_FAULTS,
    "lpddr5x": _DRAM_FAULTS,
    "nand-slc": _FLASH_FAULTS,
    "nand-tlc": _FLASH_FAULTS,
    "nor-flash": _FLASH_FAULTS,
    "pcm-optane": _RESISTIVE_FAULTS,
    "rram-weebit": _RESISTIVE_FAULTS,
    "sttmram-everspin": _RESISTIVE_FAULTS,
    "pcm-potential": _RESISTIVE_FAULTS,
    "rram-potential": _RESISTIVE_FAULTS,
    "sttmram-potential": _RESISTIVE_FAULTS,
}


def get_fault_rates(name: str) -> FaultRateSpec:
    """Fault rates for a catalog profile.

    Raises ``KeyError`` with the list of valid names on a miss — same
    contract as :func:`get_profile`.
    """
    if name not in _PROFILES:
        raise KeyError(
            f"unknown technology {name!r}; known: {sorted(_PROFILES)}"
        )
    return FAULT_RATES[name]


def get_profile(name: str) -> TechnologyProfile:
    """Look up a profile by catalog name.

    Raises ``KeyError`` with the list of valid names on a miss.
    """
    try:
        return _PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown technology {name!r}; known: {sorted(_PROFILES)}"
        ) from None


def all_profiles() -> List[TechnologyProfile]:
    """All registered profiles, sorted by name."""
    return [_PROFILES[name] for name in sorted(_PROFILES)]


# ---------------------------------------------------------------------------
# Figure 1 endurance views
# ---------------------------------------------------------------------------
#: Endurance of shipped products (writes per cell). Sources per profile.
PRODUCT_ENDURANCE: Dict[str, float] = {
    "HBM / DRAM": HBM3E.endurance_cycles,
    "NAND Flash (SLC)": NAND_SLC.endurance_cycles,
    "NAND Flash (TLC)": NAND_TLC.endurance_cycles,
    "PCM (Intel Optane)": PCM_OPTANE.endurance_cycles,
    "RRAM (Weebit)": RRAM_WEEBIT.endurance_cycles,
    "STT-MRAM (Everspin)": STTMRAM_EVERSPIN.endurance_cycles,
}

#: Endurance the underlying cell technology has demonstrated [30, 47].
TECHNOLOGY_POTENTIAL_ENDURANCE: Dict[str, float] = {
    "HBM / DRAM": HBM3E.endurance_cycles,
    "NAND Flash": NAND_SLC.endurance_cycles,  # no credible path past ~1e5
    "PCM": PCM_POTENTIAL.endurance_cycles,
    "RRAM": RRAM_POTENTIAL.endurance_cycles,
    "STT-MRAM": STTMRAM_POTENTIAL.endurance_cycles,
}
