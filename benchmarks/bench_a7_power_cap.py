"""A7 (extension) — serving under a rack power cap: HBM vs MRM tiers.

Section 2.1: "the power density of the infrastructure is very high ...
increasing the need for every Watt to be spent on useful work", plus
the power-aware scheduling thread [46].

Sweeps a per-machine power cap and reports the best DVFS operating
point for two memory configurations of equal capacity:

- 832 GiB of HBM (refresh power always on);
- 320 GiB HBM + 512 GiB MRM (refresh-free bulk; decode traffic served
  from the hbm tier in both configurations so the comparison isolates
  the *background* power of the capacity).

Asserted shape: at every feasible cap the MRM configuration's total
power is lower at equal throughput, and it stays feasible at caps where
all-HBM no longer fits — watts not spent on refresh become serving
headroom.
"""

from repro.analysis.figures import format_table
from repro.inference.accelerator import H100_80G
from repro.inference.cluster import tensor_parallel_group
from repro.inference.power import PowerModel, best_frequency_under_cap
from repro.parallel import run_sweep
from repro.tiering.tiers import hbm_tier, mrm_tier
from repro.units import GiB
from repro.workload.model import LLAMA2_70B

CAPS = (4000.0, 3000.0, 2500.0, 2200.0, 2000.0)


def _tier_set(name):
    if name == "hbm-only (832G)":
        return [hbm_tier(832 * GiB)]
    if name == "hbm+mrm (320G+512G)":
        return [
            hbm_tier(320 * GiB),
            mrm_tier(512 * GiB),
        ]
    raise KeyError(name)


CONFIG_NAMES = ("hbm-only (832G)", "hbm+mrm (320G+512G)")

A7_GRID = [
    {"tiers": name, "cap_w": cap} for name in CONFIG_NAMES for cap in CAPS
]


def a7_point(config, seed):
    """Best DVFS operating point for one (tier set, cap) — JSON-able
    dict, or None when the cap is infeasible (deterministic)."""
    power_model = PowerModel(tensor_parallel_group(H100_80G, 4))
    point = best_frequency_under_cap(
        power_model, LLAMA2_70B, _tier_set(config["tiers"]),
        cap_w=config["cap_w"],
    )
    if point is None:
        return None
    return {
        "frequency": point.frequency,
        "tokens_per_s": point.tokens_per_s,
        "total_power_w": point.total_power_w,
    }


def run_cap_sweep():
    # Dense (tier set x cap) grid through repro.parallel; grid order lets
    # the per-configuration lists be rebuilt exactly as the serial loop
    # produced them.
    points = run_sweep(a7_point, A7_GRID)
    results = {
        name: points[i * len(CAPS):(i + 1) * len(CAPS)]
        for i, name in enumerate(CONFIG_NAMES)
    }
    return CAPS, results


def test_a7_power_cap(benchmark, report):
    caps, results = benchmark(run_cap_sweep)
    rows = []
    for index, cap in enumerate(caps):
        row = [f"{cap:.0f} W"]
        for name in results:
            point = results[name][index]
            row.append(
                f"{point['tokens_per_s']:.0f} tok/s"
                f" @ f={point['frequency']:.2f}"
                if point
                else "INFEASIBLE"
            )
        rows.append(row)
    report(
        "A7 — decode throughput under a per-machine power cap",
        format_table(rows, headers=["cap"] + list(results)),
    )
    hbm_points = results["hbm-only (832G)"]
    mrm_points = results["hbm+mrm (320G+512G)"]
    # Wherever both are feasible, MRM serves at lower total power for
    # equal-or-better throughput.
    for hbm_point, mrm_point in zip(hbm_points, mrm_points):
        if hbm_point is None:
            continue
        assert mrm_point is not None
        assert (
            mrm_point["tokens_per_s"] >= hbm_point["tokens_per_s"] * 0.999
        )
        assert mrm_point["total_power_w"] < hbm_point["total_power_w"]
    # And the MRM configuration survives at least as far down the sweep.
    hbm_feasible = sum(1 for p in hbm_points if p is not None)
    mrm_feasible = sum(1 for p in mrm_points if p is not None)
    assert mrm_feasible >= hbm_feasible
