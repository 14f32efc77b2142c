"""E11 — §2.1: the HBM density scaling wall vs model growth.

"memory vendors are struggling to continue to scale the density ...
HBM4 is only expected to increase capacity per layer by 30% compared to
current HBM3e ... the industry does not expect it to scale beyond 16
layers in the foreseeable future [50]" — while model weights have grown
exponentially.

Regenerates (a) the HBM roadmap's max per-stack capacity and the yield/
cost penalty of each step; (b) stacks needed to hold a frontier model
per generation; (c) the MRM density alternative (stackable resistive
cells with MLC and relaxed-retention density gain).
"""

from repro.analysis.figures import format_table
from repro.core.retention import RetentionModel
from repro.devices.catalog import RRAM_POTENTIAL
from repro.devices.hbm import HBM_ROADMAP, HBMStack
from repro.parallel import run_sweep
from repro.tiering.tiers import MRM_TIER_RETENTION_S
from repro.units import GiB
from repro.workload.model import GPT_CLASS_500B

_GENERATIONS = {generation.name: generation for generation in HBM_ROADMAP}

E11_GRID = [{"generation": name} for name in _GENERATIONS]


def e11_point(config, seed):
    """Capacity/yield/cost of one HBM generation (deterministic)."""
    generation = _GENERATIONS[config["generation"]]
    stack = HBMStack(
        layers=generation.max_layers,
        capacity_per_layer_bytes=generation.capacity_per_layer_bytes,
    )
    return {
        "generation": generation.name,
        "layers": generation.max_layers,
        "capacity_gib": generation.max_stack_capacity() / GiB,
        "yield": stack.stack_yield(),
        "cost_multiplier": stack.cost_multiplier_vs_planar(),
        "stacks_for_frontier": HBMStack.stacks_needed(
            GPT_CLASS_500B.weights_bytes, generation
        ),
    }


def run_density_wall():
    # Roadmap generations evaluated through repro.parallel (grid order).
    roadmap = run_sweep(e11_point, E11_GRID)
    mrm_density_gain = RetentionModel(RRAM_POTENTIAL).density_multiplier(
        MRM_TIER_RETENTION_S
    )
    return roadmap, mrm_density_gain


def test_e11_density_wall(benchmark, report):
    roadmap, mrm_density_gain = benchmark(run_density_wall)
    body = format_table(
        [
            [r["generation"], r["layers"], f"{r['capacity_gib']:.0f}",
             f"{r['yield']:.2f}", f"{r['cost_multiplier']:.2f}x",
             r["stacks_for_frontier"]]
            for r in roadmap
        ],
        headers=["generation", "max layers", "GiB/stack", "stack yield",
                 "cost vs planar", "stacks for 500B model"],
    )
    body += (
        f"\n\nMRM relaxed-retention density gain at 6 h: "
        f"{mrm_density_gain:.2f}x per layer, before MLC (2x) and "
        f"crossbar (3x) multipliers"
    )
    report("E11 — the HBM density wall", body)

    # Capacity per stack grows, but the roadmap tops out at 16 layers.
    capacities = [r["capacity_gib"] for r in roadmap]
    assert capacities == sorted(capacities)
    assert max(r["layers"] for r in roadmap) == 16
    # Even end-of-roadmap HBM needs >= a dozen stacks for a 500B model.
    assert roadmap[-1]["stacks_for_frontier"] >= 12
    # Stacking higher costs yield: 16-layer stacks are pricier per bit.
    assert roadmap[-1]["cost_multiplier"] > roadmap[0]["cost_multiplier"]
    assert mrm_density_gain > 1.05
