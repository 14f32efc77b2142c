"""Sensitivity analysis for the Figure 1 reproduction.

The endurance-requirement arithmetic rests on calibration constants
(token rates, machine capacity, deployment lifetime, model geometry).
A reproduction is only as honest as its robustness: this module sweeps
each input across a plausible range and reports whether the paper's
qualitative observations — products insufficient, potentials
sufficient, HBM overprovisioned — survive.

Used by ``benchmarks/bench_a6_offload_sensitivity.py`` and cited in
EXPERIMENTS.md as the robustness certificate for F1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.devices.catalog import (
    PRODUCT_ENDURANCE,
    TECHNOLOGY_POTENTIAL_ENDURANCE,
)
from repro.endurance.requirements import (
    MACHINE_HBM_BYTES,
    MIXED_TOKENS_PER_S,
    kv_cache_requirement,
)
from repro.units import GiB, YEAR
from repro.workload.model import GPT_CLASS_500B, LLAMA2_70B, LLAMA2_70B_MHA


@dataclass(frozen=True)
class SensitivityPoint:
    """One parameter setting and the resulting KV requirement."""

    parameter: str
    value: str
    kv_writes_per_cell: float

    def shape_holds(self) -> Dict[str, bool]:
        """The Figure 1 observations at this point."""
        weakest_product = min(
            v
            for k, v in PRODUCT_ENDURANCE.items()
            if k != "HBM / DRAM"
        )
        scm_potentials = [
            v
            for k, v in TECHNOLOGY_POTENTIAL_ENDURANCE.items()
            if k not in ("HBM / DRAM", "NAND Flash")
        ]
        return {
            "hbm_overprovisioned": PRODUCT_ENDURANCE["HBM / DRAM"]
            >= self.kv_writes_per_cell * 1e6,
            "some_product_insufficient": weakest_product
            < self.kv_writes_per_cell,
            "potential_sufficient": min(scm_potentials)
            >= self.kv_writes_per_cell,
        }


def sweep_kv_requirement() -> List[SensitivityPoint]:
    """One-at-a-time sweeps around the default calibration."""
    default_capacity = MACHINE_HBM_BYTES - LLAMA2_70B.weights_bytes
    points: List[SensitivityPoint] = []

    for rate in (350.0, 700.0, 1400.0, 6000.0, 12000.0):
        requirement = kv_cache_requirement(
            LLAMA2_70B, token_rate_per_s=rate, capacity_bytes=default_capacity
        )
        points.append(
            SensitivityPoint(
                "token rate (tok/s)", f"{rate:.0f}", requirement.writes_per_cell
            )
        )
    for capacity in (256.0, 512.0, 1024.0):
        requirement = kv_cache_requirement(
            LLAMA2_70B,
            token_rate_per_s=MIXED_TOKENS_PER_S,
            capacity_bytes=int(capacity * GiB),
        )
        points.append(
            SensitivityPoint(
                "KV pool (GiB)", f"{capacity:.0f}", requirement.writes_per_cell
            )
        )
    for years in (3.0, 5.0, 10.0):
        requirement = kv_cache_requirement(LLAMA2_70B, lifetime_s=years * YEAR)
        points.append(
            SensitivityPoint(
                "lifetime (years)", f"{years:.0f}", requirement.writes_per_cell
            )
        )
    for model in (LLAMA2_70B, LLAMA2_70B_MHA, GPT_CLASS_500B):
        # Larger models deploy on proportionally larger machines; keep
        # the KV pool comparable by scaling the machine with the model
        # (weights plus the default calibration's KV headroom).
        machine_bytes = model.weights_bytes + default_capacity
        requirement = kv_cache_requirement(
            model,
            token_rate_per_s=MIXED_TOKENS_PER_S,
            capacity_bytes=machine_bytes - model.weights_bytes,
        )
        points.append(
            SensitivityPoint("model", model.name, requirement.writes_per_cell)
        )
    return points


def robustness_summary(
    points: Optional[List[SensitivityPoint]] = None,
) -> Dict[str, float]:
    """Fraction of sweep points at which each observation holds."""
    points = points if points is not None else sweep_kv_requirement()
    if not points:
        raise ValueError("no sweep points")
    tallies = {"hbm_overprovisioned": 0, "some_product_insufficient": 0,
               "potential_sufficient": 0}
    for point in points:
        for key, holds in point.shape_holds().items():
            tallies[key] += int(holds)
    return {key: count / len(points) for key, count in tallies.items()}
