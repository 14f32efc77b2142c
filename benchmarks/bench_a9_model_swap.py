"""A9 (ablation) — what the forfeited write performance actually costs.

MRM "foregoes long-term data retention and write performance" —
Section 2's model-swap procedure ("the cluster stops accepting new
requests, services ongoing ones, then loads weights for the new
model") is the one bulk-write moment where that forfeit could bite.

Sweeps the weight-update cadence from the paper's conservative hourly
bound to its intensive once-per-second bound and reports load time,
availability, and lifetime endurance consumption on HBM vs MRM tiers.

Asserted shape: at realistic cadences (hourly+) the MRM swap penalty is
noise (availability >99.9%) and the endurance budget is trivial; only
at the per-second extreme does the write trade become visible — and
even there MRM remains serviceable.  The trade is safe where the paper
says the workload lives.
"""

from repro.analysis.figures import format_table
from repro.inference.deployment import ModelSwapModel
from repro.tiering.tiers import hbm_tier, mrm_tier
from repro.units import DAY, GiB, HOUR, seconds_to_human
from repro.workload.model import LLAMA2_70B

CADENCES = (7 * DAY, DAY, HOUR, 60.0, 1.0)


def run_swap_sweep():
    swap_model = ModelSwapModel(LLAMA2_70B)
    tiers = [hbm_tier(320 * GiB), mrm_tier(512 * GiB)]
    rows = []
    for cadence in CADENCES:
        for tier in tiers:
            cost = swap_model.swap_cost(tier, update_interval_s=cadence)
            rows.append(
                {
                    "cadence": cadence,
                    "tier": tier.name,
                    "load_s": cost.load_time_s,
                    "availability": cost.availability,
                    "endurance": swap_model.endurance_consumed(
                        tier, update_interval_s=cadence
                    ),
                }
            )
    return rows


def test_a9_model_swap(benchmark, report):
    rows = benchmark(run_swap_sweep)
    report(
        "A9 — model-swap cost of the write-performance trade (Llama2-70B)",
        format_table(
            [
                [seconds_to_human(r["cadence"]), r["tier"],
                 f"{r['load_s'] * 1e3:.1f} ms",
                 f"{r['availability']:.4%}",
                 f"{r['endurance']:.2e}"]
                for r in rows
            ],
            headers=["update cadence", "tier", "weights load",
                     "availability", "endurance consumed (5y)"],
        ),
    )
    by = {(r["cadence"], r["tier"]): r for r in rows}
    # Realistic cadences: the MRM penalty is negligible.
    assert by[(HOUR, "mrm")]["availability"] > 0.999
    assert by[(HOUR, "mrm")]["endurance"] < 1e-3
    # The extreme shows the trade (MRM loses more than HBM)...
    assert (
        by[(1.0, "mrm")]["availability"] < by[(1.0, "hbm")]["availability"]
    )
    # ...but even there the replica mostly serves.
    assert by[(1.0, "mrm")]["availability"] > 0.8
