"""Roofline timing: is a step compute- or memory-bound?

"Even using HBM, a substantial part of every inference query is memory
bound [37]" (Section 2.1).  The roofline model makes that measurable:
a step's duration is the max of its compute time and its memory-transfer
time; whichever dominates classifies the step.

The memory side is per-tier: a step that reads weights from tier A and
KV from tier B overlaps the transfers (separate channels), so memory
time is the max over tiers of (bytes moved on that tier / tier
bandwidth).  This is exactly the structure the tiering experiments (E10)
need: moving weights to a high-read-bandwidth MRM tier relieves the HBM
bottleneck rather than sharing it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np

from repro.inference.accelerator import AcceleratorConfig
from repro.workload.model import ModelConfig
from repro.workload.phases import PhaseTraffic, decode_step_traffic, prefill_traffic


def _negative(count) -> bool:
    """Whether a byte count, a scalar or a per-step array, is negative."""
    if isinstance(count, np.ndarray):
        return bool((count < 0).any())
    return count < 0


class Boundedness(enum.Enum):
    COMPUTE = "compute-bound"
    MEMORY = "memory-bound"


@dataclass(frozen=True)
class StepTiming:
    """Timing breakdown of one step."""

    compute_time_s: float
    memory_time_s: float
    bottleneck_tier: str

    @property
    def duration_s(self) -> float:
        return max(self.compute_time_s, self.memory_time_s)

    @property
    def boundedness(self) -> Boundedness:
        if self.memory_time_s >= self.compute_time_s:
            return Boundedness.MEMORY
        return Boundedness.COMPUTE


class RooflineModel:
    """Step timing for an accelerator given per-tier byte movement.

    Parameters
    ----------
    accelerator:
        The accelerator config (peaks and efficiencies).
    """

    def __init__(self, accelerator: AcceleratorConfig) -> None:
        self.accelerator = accelerator
        self._tier_names = frozenset(accelerator.tier_names)

    # ------------------------------------------------------------------
    # Generic timing
    # ------------------------------------------------------------------
    def time_step(
        self,
        flops: float,
        tier_read_bytes: Mapping[str, float],
        tier_write_bytes: Mapping[str, float] = (),
    ) -> StepTiming:
        """Time a step that burns ``flops`` and moves the given bytes.

        ``tier_read_bytes``/``tier_write_bytes`` map tier name -> bytes.
        Transfers on different tiers overlap; reads and writes on the
        same tier share its (duplex) channels, modeled as additive time.
        """
        if flops < 0:
            raise ValueError("flops must be >= 0")
        acc = self.accelerator
        compute_time = flops / acc.effective_flops
        memory_time = 0.0
        bottleneck = acc.tiers[0].name
        tier_write_bytes = dict(tier_write_bytes)
        for tier in acc.tiers:
            reads = float(tier_read_bytes.get(tier.name, 0.0))
            writes = float(tier_write_bytes.get(tier.name, 0.0))
            if reads < 0 or writes < 0:
                raise ValueError("byte counts must be >= 0")
            t = (
                reads / (tier.read_bandwidth * acc.bandwidth_efficiency)
                + writes / (tier.write_bandwidth * acc.bandwidth_efficiency)
            )
            if t > memory_time:
                memory_time = t
                bottleneck = tier.name
        self._check_tiers(tier_read_bytes, tier_write_bytes)
        return StepTiming(compute_time, memory_time, bottleneck)

    def _check_tiers(self, tier_read_bytes, tier_write_bytes) -> None:
        names = self._tier_names
        if not (tier_read_bytes.keys() <= names and tier_write_bytes.keys() <= names):
            unknown = (set(tier_read_bytes) | set(tier_write_bytes)) - names
            raise KeyError(f"bytes routed to unknown tiers: {sorted(unknown)}")

    def time_steps(
        self,
        flops: np.ndarray,
        tier_read_bytes: Mapping[str, object],
        tier_write_bytes: Mapping[str, object] = (),
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Array form of :meth:`time_step` for a run of steps.

        ``flops`` and each byte count are per-step arrays (or scalars
        shared by every step).  Returns ``(duration_s, memory_bound)``:
        element ``i`` equals ``time_step`` on step ``i``'s numbers —
        its ``duration_s`` and whether its boundedness is
        :attr:`Boundedness.MEMORY` — because the same float operations
        run in the same order, one step per array lane.
        """
        acc = self.accelerator
        flops = np.asarray(flops, dtype=np.float64)
        if (flops < 0).any():
            raise ValueError("flops must be >= 0")
        tier_write_bytes = dict(tier_write_bytes)
        self._check_tiers(tier_read_bytes, tier_write_bytes)
        compute_time = flops / acc.effective_flops
        # Scalar traffic stays a Python float; the max over tiers is exact.
        memory_time = 0.0
        for tier in acc.tiers:
            reads = tier_read_bytes.get(tier.name, 0.0)
            writes = tier_write_bytes.get(tier.name, 0.0)
            if _negative(reads) or _negative(writes):
                raise ValueError("byte counts must be >= 0")
            t = (
                reads / (tier.read_bandwidth * acc.bandwidth_efficiency)
                + writes / (tier.write_bandwidth * acc.bandwidth_efficiency)
            )
            memory_time = np.maximum(memory_time, t)
        return np.maximum(compute_time, memory_time), memory_time >= compute_time

    # ------------------------------------------------------------------
    # Phase-level helpers (single-tier convenience: everything on HBM)
    # ------------------------------------------------------------------
    def _route_all(self, traffic: PhaseTraffic, tier: str) -> StepTiming:
        return self.time_step(
            traffic.flops,
            {tier: traffic.bytes_read},
            {tier: traffic.bytes_written},
        )

    def time_prefill(
        self, model: ModelConfig, prompt_tokens: int, tier: str = "hbm"
    ) -> StepTiming:
        """Prefill timing with all data on one tier."""
        return self._route_all(prefill_traffic(model, prompt_tokens), tier)

    def time_decode_step(
        self,
        model: ModelConfig,
        context_tokens: int,
        batch_size: int = 1,
        tier: str = "hbm",
    ) -> StepTiming:
        """Decode-step timing with all data on one tier."""
        return self._route_all(
            decode_step_traffic(model, context_tokens, batch_size), tier
        )

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def memory_bound_fraction_of_request(
        self,
        model: ModelConfig,
        prompt_tokens: int,
        output_tokens: int,
        batch_size: int = 1,
        tier: str = "hbm",
    ) -> float:
        """Fraction of a request's wall time spent memory-bound.

        Prefill is typically compute-bound, decode memory-bound; the mix
        depends on the prompt:output ratio — this is the number behind
        "a substantial part of every inference query is memory bound".
        """
        prefill = self.time_prefill(model, prompt_tokens, tier)
        total = prefill.duration_s
        memory_bound = (
            prefill.duration_s
            if prefill.boundedness is Boundedness.MEMORY
            else 0.0
        )
        for step in range(output_tokens):
            timing = self.time_decode_step(
                model, prompt_tokens + step, batch_size, tier
            )
            # Batched steps amortize weight reads; charge this context
            # its share of the step.
            share = timing.duration_s / batch_size
            total += share
            if timing.boundedness is Boundedness.MEMORY:
                memory_bound += share
        if total == 0:
            return 0.0
        return memory_bound / total
