"""Figure 1: workload endurance requirements vs technology endurance.

The paper's method (Section 3):

  *Weights* — "infrequent, bulk overwrites when the model is replaced
  ... We estimate the endurance required over 5 years for a conservative
  hourly update and an intensive once per second update."  Each update
  rewrites every weight cell once, so writes/cell = lifetime / interval.

  *KV cache* — "writes occur both during prefill and decode, one
  self-attention vector per context token ... we use the throughputs and
  median context lengths reported for the Llama2-70B model in Splitwise
  [37].  For an expected lifetime of five years, we compute the number
  of KV cache writes, and infer the average number of writes per cell."
  Writes/cell = (token rate x KV bytes/token x lifetime) / capacity —
  assuming writes spread over the full KV pool (software wear-leveling
  by zone rotation makes this the steady state).

:func:`figure1_data` assembles requirements and the product/potential
endurance tables from :mod:`repro.devices.catalog` into the full figure.
The expected *shape* (the paper's two observations):

1. HBM (~1e16) is vastly overprovisioned — requirements top out ~1e8;
2. shipped SCM products (1e5-1e6) miss the KV-cache requirement, while
   the underlying technologies' potential (1e9-1e15) clears it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.devices.catalog import (
    PRODUCT_ENDURANCE,
    TECHNOLOGY_POTENTIAL_ENDURANCE,
)
from repro.units import GiB, HOUR, YEAR
from repro.workload.model import LLAMA2_70B, ModelConfig


# Published Llama2-70B serving statistics from Splitwise [37]: the
# public paper's reported operating points for one DGX-class machine
# (8 accelerators, 640 GB HBM).
#: Prompt tokens/s a prefill-phase machine sustains (thousands).
PREFILL_TOKENS_PER_S = 6000.0
#: Generated tokens/s a decode-phase machine sustains (hundreds).
DECODE_TOKENS_PER_S = 700.0
#: Median prompt and output tokens of the conversation trace.
MEDIAN_PROMPT_TOKENS = 1020
MEDIAN_OUTPUT_TOKENS = 129
#: The machine's HBM.
MACHINE_HBM_BYTES = 640 * GiB
#: Aggregate KV-vector write rate of a machine serving whole requests:
#: prompts arrive at the rate the machine can prefill them interleaved
#: with decode.  Weighted by the median request's phase token counts.
MIXED_TOKENS_PER_S = (MEDIAN_PROMPT_TOKENS + MEDIAN_OUTPUT_TOKENS) / (
    MEDIAN_PROMPT_TOKENS / PREFILL_TOKENS_PER_S
    + MEDIAN_OUTPUT_TOKENS / DECODE_TOKENS_PER_S
)


@dataclass(frozen=True)
class EnduranceRequirement:
    """One bar on the requirements side of Figure 1."""

    name: str
    writes_per_cell: float
    detail: str = ""


def weight_update_requirement(
    update_interval_s: float, lifetime_s: float = 5 * YEAR, name: Optional[str] = None
) -> EnduranceRequirement:
    """Writes per weight cell over the deployment lifetime.

    A model update is a bulk overwrite of every weight cell, so the
    requirement is simply how many updates fit in the lifetime.
    """
    if update_interval_s <= 0 or lifetime_s <= 0:
        raise ValueError("intervals must be positive")
    writes = lifetime_s / update_interval_s
    return EnduranceRequirement(
        name=name or f"weights (every {update_interval_s:.0f}s)",
        writes_per_cell=writes,
        detail=f"bulk overwrite every {update_interval_s:.0f}s for "
        f"{lifetime_s / YEAR:.0f}y",
    )


def kv_cache_requirement(
    model: ModelConfig = LLAMA2_70B,
    token_rate_per_s: Optional[float] = None,
    capacity_bytes: Optional[int] = None,
    lifetime_s: float = 5 * YEAR,
    name: str = "KV cache",
) -> EnduranceRequirement:
    """Writes per cell implied by the KV append stream.

    Defaults to the Splitwise calibration: mixed prefill+decode token
    rate on a 640 GB machine, writes spread across the machine's KV
    pool (capacity minus the weights replica).
    """
    if token_rate_per_s is None:
        token_rate_per_s = MIXED_TOKENS_PER_S
    if capacity_bytes is None:
        capacity_bytes = MACHINE_HBM_BYTES - model.weights_bytes
    if token_rate_per_s <= 0 or capacity_bytes <= 0 or lifetime_s <= 0:
        raise ValueError("rates, capacity and lifetime must be positive")
    bytes_per_s = token_rate_per_s * model.kv_bytes_per_token
    total_bytes = bytes_per_s * lifetime_s
    writes = total_bytes / capacity_bytes
    return EnduranceRequirement(
        name=name,
        writes_per_cell=writes,
        detail=(
            f"{token_rate_per_s:.0f} tok/s x {model.kv_bytes_per_token} B/tok "
            f"over {capacity_bytes / GiB:.0f} GiB for {lifetime_s / YEAR:.0f}y"
        ),
    )


def figure1_data(lifetime_s: float = 5 * YEAR) -> Dict[str, object]:
    """Everything Figure 1 plots, for Llama2-70B at the Splitwise
    calibration.

    Returns a dict with:

    - ``requirements``: the three workload bars (weights hourly, weights
      per-second, KV cache at the Splitwise operating point);
    - ``kv_range``: (decode-only, prefill-only) KV requirement bounds;
    - ``products`` / ``potentials``: endurance of shipped devices and of
      the underlying technologies (writes per cell).
    """
    model = LLAMA2_70B
    requirements = [
        weight_update_requirement(HOUR, lifetime_s, name="weights (hourly)"),
        weight_update_requirement(1.0, lifetime_s, name="weights (every 1s)"),
        kv_cache_requirement(model, lifetime_s=lifetime_s),
    ]
    capacity = MACHINE_HBM_BYTES - model.weights_bytes
    kv_low = kv_cache_requirement(
        model,
        token_rate_per_s=DECODE_TOKENS_PER_S,
        capacity_bytes=capacity,
        lifetime_s=lifetime_s,
        name="KV cache (decode-only)",
    )
    kv_high = kv_cache_requirement(
        model,
        token_rate_per_s=PREFILL_TOKENS_PER_S,
        capacity_bytes=capacity,
        lifetime_s=lifetime_s,
        name="KV cache (prefill-only)",
    )
    return {
        "requirements": requirements,
        "kv_range": (kv_low, kv_high),
        "products": dict(PRODUCT_ENDURANCE),
        "potentials": dict(TECHNOLOGY_POTENTIAL_ENDURANCE),
        "lifetime_s": lifetime_s,
        "model": model.name,
    }


def check_figure1_shape(data: Optional[Dict[str, object]] = None) -> Dict[str, bool]:
    """The paper's two stated observations, as booleans.

    Used by tests and EXPERIMENTS.md to certify the reproduction:

    - ``hbm_overprovisioned``: HBM endurance exceeds every requirement
      by >= 6 orders of magnitude;
    - ``products_insufficient``: at least one shipped SCM product falls
      below the KV-cache requirement;
    - ``potential_sufficient``: every SCM technology's potential clears
      the KV-cache requirement.
    """
    data = data or figure1_data()
    requirements = data["requirements"]
    kv = next(r for r in requirements if r.name == "KV cache")
    max_requirement = max(r.writes_per_cell for r in requirements)
    hbm = data["products"]["HBM / DRAM"]
    products = {
        k: v for k, v in data["products"].items() if k != "HBM / DRAM"
    }
    potentials = {
        k: v
        for k, v in data["potentials"].items()
        if k not in ("HBM / DRAM", "NAND Flash")
    }
    return {
        "hbm_overprovisioned": hbm >= max_requirement * 1e6,
        "products_insufficient": any(
            v < kv.writes_per_cell for v in products.values()
        ),
        "potential_sufficient": all(
            v >= kv.writes_per_cell for v in potentials.values()
        ),
    }
