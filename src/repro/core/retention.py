"""Retention physics: the trade-off engine behind MRM.

The paper's core observation is that retention time is a *continuum*, and
that SCM technologies paid for their mandated 10-year retention with
write energy, write latency, endurance and density.  This module gives
that statement a quantitative, mechanistic form using the thermal
stability framework standard in the STT-MRAM and RRAM literature the
paper cites [18, 23, 34, 43, 48]:

Retention.
    A cell's state sits behind an energy barrier ``Δ`` (in units of
    ``k_B * T``).  Thermally-activated escape gives a mean time to data
    loss ``t_ret = tau0 * exp(Δ)`` with attempt period ``tau0 ≈ 1 ns``.
    Ten-year retention needs ``Δ ≈ ln(10 y / 1 ns) ≈ 40``; one hour
    needs only ``Δ ≈ 29``; one second ``Δ ≈ 21``.

Write energy and latency.
    The write pulse must overcome the same barrier: write current scales
    with Δ, and at reduced Δ the pulse can also be shortened, so write
    energy scales ``∝ Δ**energy_exponent`` (default 2: current × time,
    matching the ~70% energy savings Smullen et al. [43] report when
    dropping from 10-year to ~1-second retention) and latency
    ``∝ Δ**latency_exponent`` (default 1).

Endurance.
    Cell wear is driven by write stress (voltage/current across the
    cell).  Lower Δ means gentler writes: endurance grows exponentially
    as Δ falls, ``endurance(Δ) = endurance_ref * exp(slope * (Δ_ref − Δ))``.
    The default slope (1.4 nats per unit Δ) is calibrated so that
    relaxing a 10-year RRAM product (1e5 cycles) to ~1-hour retention
    recovers the ~1e12 cycles the cell literature demonstrates [25] —
    i.e. it spans exactly the product-vs-potential gap in Figure 1.

Temperature.
    Arrhenius acceleration: the barrier is fixed in joules, so Δ (in
    ``k_B T`` units) falls as temperature rises; retention collapses
    accordingly.  MRM sits in-package next to an accelerator at 85-95 °C,
    so this derating matters.

Density.
    Lower write voltage unlocks smaller access transistors and advanced
    nodes [58]; modeled as a mild linear density gain in (Δ_ref − Δ).

Everything is relative to a *reference profile* — a real product
engineered for 10-year retention — so derived numbers stay anchored to
shipped-device data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.devices.base import CellKind, TechnologyProfile
from repro.units import YEAR

#: Boltzmann constant in J/K (only ratios matter here, but keep it real).
K_BOLTZMANN = 1.380649e-23

TEN_YEARS = 10 * YEAR


@dataclass(frozen=True)
class RetentionParams:
    """Shape parameters of the retention trade-off model.

    Attributes
    ----------
    tau0_s:
        Thermal attempt period (~1 ns for MTJs and filaments).
    energy_exponent:
        Write energy ``∝ Δ**energy_exponent``.
    latency_exponent:
        Write latency ``∝ Δ**latency_exponent``.
    endurance_slope:
        Nats of endurance gained per unit of Δ relaxed.  The default
        (1.4) is calibrated so a 10-year product relaxed to ~1-hour
        retention gains ~1e7x endurance — exactly the Weebit-product
        (1e5) to RRAM-potential (1e12) gap in Figure 1.
    endurance_cap:
        Physical ceiling on derived endurance (no cell beats DRAM).
    density_gain_at_zero_delta:
        Fractional density gain if Δ were relaxed all the way to zero
        (linear in between); 0.5 means up to +50%.
    reference_temperature_c:
        Temperature at which the reference profile's retention is quoted.
    barrier_ev_at_reference:
        Physical barrier height implied at the reference point, used for
        Arrhenius temperature derating.
    """

    tau0_s: float = 1e-9
    energy_exponent: float = 2.0
    latency_exponent: float = 1.0
    endurance_slope: float = 1.4
    endurance_cap: float = 1e16
    density_gain_at_zero_delta: float = 0.5
    reference_temperature_c: float = 55.0

    def __post_init__(self) -> None:
        if self.tau0_s <= 0:
            raise ValueError("tau0 must be positive")
        if self.energy_exponent < 0 or self.latency_exponent < 0:
            raise ValueError("exponents must be >= 0")
        if self.endurance_slope < 0:
            raise ValueError("endurance slope must be >= 0")


class RetentionModel:
    """Maps a target retention time to derived write cost, endurance and
    density, anchored to a reference (10-year) product profile.

    Example
    -------
    >>> from repro.devices.catalog import RRAM_WEEBIT
    >>> model = RetentionModel(RRAM_WEEBIT)
    >>> model.endurance_cycles(3600.0) > RRAM_WEEBIT.endurance_cycles
    True
    >>> model.write_energy_j_per_byte(3600.0) < RRAM_WEEBIT.write_energy_j_per_byte
    True
    """

    def __init__(
        self,
        reference: TechnologyProfile,
        params: Optional[RetentionParams] = None,
    ) -> None:
        self.reference = reference
        self.params = params or RetentionParams()
        self._delta_ref = self.delta_for_retention(reference.retention_s)
        if self._delta_ref <= 0:
            raise ValueError(
                f"reference retention {reference.retention_s}s is below tau0"
            )

    # ------------------------------------------------------------------
    # Δ <-> retention
    # ------------------------------------------------------------------
    def delta_for_retention(self, retention_s: float) -> float:
        """Thermal stability factor needed for ``retention_s``."""
        if retention_s <= 0:
            raise ValueError("retention must be positive")
        if retention_s < self.params.tau0_s:
            raise ValueError(
                f"retention {retention_s}s below attempt period {self.params.tau0_s}s"
            )
        return math.log(retention_s / self.params.tau0_s)

    def retention_for_delta(self, delta: float) -> float:
        """Mean retention time at stability factor ``delta``."""
        if delta < 0:
            raise ValueError("delta must be >= 0")
        return self.params.tau0_s * math.exp(delta)

    @property
    def reference_delta(self) -> float:
        return self._delta_ref

    # ------------------------------------------------------------------
    # Derived write cost
    # ------------------------------------------------------------------
    def write_energy_j_per_byte(self, retention_s: float) -> float:
        """Write energy when programming for ``retention_s``."""
        delta = self._clamped_delta(retention_s)
        scale = (delta / self._delta_ref) ** self.params.energy_exponent
        return self.reference.write_energy_j_per_byte * scale

    def write_latency_s(self, retention_s: float) -> float:
        delta = self._clamped_delta(retention_s)
        scale = (delta / self._delta_ref) ** self.params.latency_exponent
        return self.reference.write_latency_s * scale

    def write_bandwidth(self, retention_s: float) -> float:
        """Write bandwidth improves as the program pulse shortens."""
        delta = self._clamped_delta(retention_s)
        scale = (delta / self._delta_ref) ** self.params.latency_exponent
        return self.reference.write_bandwidth / scale

    def endurance_cycles(self, retention_s: float) -> float:
        """Cell endurance when written at ``retention_s`` strength."""
        delta = self._clamped_delta(retention_s)
        gain = math.exp(self.params.endurance_slope * (self._delta_ref - delta))
        return min(self.reference.endurance_cycles * gain, self.params.endurance_cap)

    def density_multiplier(self, retention_s: float) -> float:
        """Areal density gain from reduced write voltage [58]."""
        delta = self._clamped_delta(retention_s)
        frac = (self._delta_ref - delta) / self._delta_ref
        return 1.0 + self.params.density_gain_at_zero_delta * frac

    def _clamped_delta(self, retention_s: float) -> float:
        delta = self.delta_for_retention(retention_s)
        # Programming *above* the reference strength is out of model scope;
        # clamp so asking for >reference retention returns reference costs.
        return min(delta, self._delta_ref)

    # ------------------------------------------------------------------
    # Temperature
    # ------------------------------------------------------------------
    def retention_at_temperature(
        self, retention_s: float, temperature_c: float
    ) -> float:
        """Arrhenius derating: retention quoted at the reference
        temperature, evaluated at ``temperature_c``.

        The barrier energy ``E_b = Δ * k_B * T_ref`` is fixed; at a new
        temperature the effective stability is ``E_b / (k_B * T)``.
        """
        t_ref_k = self.params.reference_temperature_c + 273.15
        t_k = temperature_c + 273.15
        if t_k <= 0:
            raise ValueError("temperature below absolute zero")
        delta_ref_temp = self.delta_for_retention(retention_s)
        delta_at_t = delta_ref_temp * (t_ref_k / t_k)
        return self.retention_for_delta(delta_at_t)

    def required_retention_for_temperature(
        self, target_retention_s: float, temperature_c: float
    ) -> float:
        """Inverse of :meth:`retention_at_temperature`: the retention to
        program (quoted at reference temperature) so that the data
        actually survives ``target_retention_s`` at ``temperature_c``."""
        t_ref_k = self.params.reference_temperature_c + 273.15
        t_k = temperature_c + 273.15
        delta_needed_at_t = self.delta_for_retention(target_retention_s)
        delta_programmed = delta_needed_at_t * (t_k / t_ref_k)
        return self.retention_for_delta(delta_programmed)

    # ------------------------------------------------------------------
    # Derived profiles
    # ------------------------------------------------------------------
    def profile_at(self, retention_s: float, name: str = "") -> TechnologyProfile:
        """A full :class:`TechnologyProfile` for cells programmed at
        ``retention_s`` — this is "an MRM device built from the reference
        technology"."""
        return self.reference.with_overrides(
            name=name or f"{self.reference.name}@{retention_s:.0f}s",
            cell=CellKind.MRM,
            retention_s=retention_s,
            endurance_cycles=self.endurance_cycles(retention_s),
            write_latency_s=self.write_latency_s(retention_s),
            write_bandwidth=self.write_bandwidth(retention_s),
            write_energy_j_per_byte=self.write_energy_j_per_byte(retention_s),
            density_gbit_per_mm2=(
                self.reference.density_gbit_per_mm2
                * self.density_multiplier(retention_s)
            ),
            source=f"derived from {self.reference.name} via RetentionModel",
        )
