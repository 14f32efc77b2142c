"""Power-aware serving: DVFS under a rack power cap.

Section 4 lists "power-aware scheduling [46]" (TAPAS) among the OS
mechanisms of the emerging rack-scale inference OS, and Section 2.1
notes "the power density of the infrastructure is very high and
continues to grow, increasing the need for every Watt to be spent on
useful work".

This module makes the interaction between power caps and memory
technology quantitative:

- :class:`PowerModel` — steady-state power of one serving machine:
  compute die (idle + utilization-dependent dynamic, DVFS-scalable) plus
  memory (access power from byte rates, refresh power from the tier's
  technology);
- :func:`best_frequency_under_cap` — the classic memory-bound DVFS
  insight: decode barely uses the compute die, so clocking it down
  costs little throughput while freeing real watts.  MRM enters through
  the refresh term: a refresh-free memory tier leaves more of the cap
  for useful work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.devices.base import MemoryTier
from repro.inference.accelerator import AcceleratorConfig
from repro.units import Ratio, Watts
from repro.workload.model import ModelConfig
from repro.workload.phases import PhaseTraffic, decode_step_traffic

#: Dynamic compute power scales as ``f**exponent`` under DVFS (voltage
#: scaling makes this ~2-3; 2.5 is a common fit).
FREQUENCY_POWER_EXPONENT = 2.5
#: The decode operating point :func:`best_frequency_under_cap` solves
#: at: batch 16 at 2,048-token contexts.
DECODE_BATCH_SIZE = 16
DECODE_CONTEXT_TOKENS = 2048


@dataclass(frozen=True)
class PowerModel:
    """Steady-state power of one serving machine.

    Attributes
    ----------
    accelerator:
        Compute configuration (board power = compute-die budget).
    idle_fraction:
        Fraction of board power drawn at zero utilization.
    """

    accelerator: AcceleratorConfig
    idle_fraction: Ratio = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.idle_fraction < 1.0:
            raise ValueError("idle fraction must be in [0, 1)")

    def compute_power_w(self, utilization: Ratio, frequency: Ratio = 1.0) -> Watts:
        """Compute-die power at a given utilization and DVFS point."""
        if not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization in [0, 1]")
        if not 0.0 < frequency <= 1.0:
            raise ValueError("frequency in (0, 1]")
        board = self.accelerator.board_power_w
        idle = board * self.idle_fraction
        dynamic = (
            board
            * (1.0 - self.idle_fraction)
            * utilization
            * frequency**FREQUENCY_POWER_EXPONENT
        )
        return idle + dynamic

    def memory_power_w(
        self,
        tiers: Sequence[MemoryTier],
        read_rates: Sequence[float],
        write_rates: Sequence[float],
    ) -> Watts:
        """Memory power: per-tier access power plus refresh power."""
        if not (len(tiers) == len(read_rates) == len(write_rates)):
            raise ValueError("one rate pair per tier")
        total = 0.0
        for tier, reads, writes in zip(tiers, read_rates, write_rates):
            if reads < 0 or writes < 0:
                raise ValueError("rates must be >= 0")
            total += tier.read_energy_j(reads) + tier.write_energy_j(writes)
            total += tier.refresh_power_w()
        return total


@dataclass(frozen=True)
class OperatingPoint:
    """One DVFS solution under a power cap."""

    frequency: Ratio
    tokens_per_s: float
    compute_power_w: Watts
    memory_power_w: Watts

    @property
    def total_power_w(self) -> Watts:
        return self.compute_power_w + self.memory_power_w


def _decode_throughput_at_frequency(
    accelerator: AcceleratorConfig, traffic: PhaseTraffic, frequency: float
) -> Tuple[float, float]:
    """(tokens/s, compute utilization) of steady decode at a DVFS point,
    all traffic on HBM."""
    compute_time = traffic.flops / (accelerator.effective_flops * frequency)
    tier = accelerator.tier("hbm")
    memory_time = (
        traffic.bytes_read
        / (tier.read_bandwidth * accelerator.bandwidth_efficiency)
        + traffic.bytes_written
        / (tier.write_bandwidth * accelerator.bandwidth_efficiency)
    )
    step = max(compute_time, memory_time)
    utilization = compute_time / step
    return DECODE_BATCH_SIZE / step, utilization


def best_frequency_under_cap(
    power_model: PowerModel,
    model: ModelConfig,
    tiers: Sequence[MemoryTier],
    cap_w: Watts,
    frequencies: Optional[Sequence[float]] = None,
) -> Optional[OperatingPoint]:
    """Highest-throughput DVFS point whose total power fits the cap.

    Memory power is charged at the achieved byte rates (they scale with
    throughput); refresh power is constant per tier.  Returns ``None``
    when even the lowest frequency cannot fit the cap (the machine
    cannot run this workload at this budget).
    """
    if cap_w <= 0:
        raise ValueError("cap must be positive")
    accelerator = power_model.accelerator
    traffic = decode_step_traffic(
        model, DECODE_CONTEXT_TOKENS, DECODE_BATCH_SIZE
    )
    frequencies = frequencies or [f / 20.0 for f in range(20, 4, -1)]
    best: Optional[OperatingPoint] = None
    for frequency in frequencies:
        tokens_per_s, utilization = _decode_throughput_at_frequency(
            accelerator, traffic, frequency
        )
        steps_per_s = tokens_per_s / DECODE_BATCH_SIZE
        read_rate = traffic.bytes_read * steps_per_s
        write_rate = traffic.bytes_written * steps_per_s
        # Route all traffic over HBM; other tiers only refresh.
        read_rates = [
            read_rate if tier.name == "hbm" else 0.0 for tier in tiers
        ]
        write_rates = [
            write_rate if tier.name == "hbm" else 0.0 for tier in tiers
        ]
        compute = power_model.compute_power_w(utilization, frequency)
        memory = power_model.memory_power_w(tiers, read_rates, write_rates)
        if compute + memory > cap_w:
            continue
        point = OperatingPoint(
            frequency=frequency,
            tokens_per_s=tokens_per_s,
            compute_power_w=compute,
            memory_power_w=memory,
        )
        if best is None or point.tokens_per_s > best.tokens_per_s:
            best = point
    return best
