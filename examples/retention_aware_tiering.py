#!/usr/bin/env python3
"""Scenario: retention-aware data placement across HBM + MRM + LPDDR.

Section 4's "retention-aware data placement and scheduling", run as an
experiment:

1. build the inference data set (weights, live KV caches, activations)
   for a 70B deployment;
2. place it under four policies (all-HBM, kind-based, lifetime-aware,
   cost-greedy) and compare hardware cost, refresh power, feasibility;
3. run the retention-aware TierManager over a simulated day: contexts
   come and go, deadlines fire, the manager refreshes / migrates /
   drops — and reports what the management actually cost.

Run:  python examples/retention_aware_tiering.py
"""

import numpy as np

from repro.analysis.figures import format_table
from repro.core.placement import (
    activations_object,
    kv_cache_object,
    weights_object,
)
from repro.tiering.policy import (
    AllHBMPolicy,
    CostGreedyPolicy,
    KindBasedPolicy,
    LifetimeAwarePolicy,
)
from repro.tiering.scheduler import TierManager
from repro.tiering.tiers import hbm_tier, lpddr_tier, mrm_tier
from repro.units import DAY, GiB, HOUR, MINUTE
from repro.workload.model import LLAMA2_70B


def build_objects(num_contexts=16):
    model = LLAMA2_70B
    objects = [
        weights_object(
            model.weights_bytes, read_bytes_per_s=6e12,
            name="weights",
        ),
        activations_object(
            model.activation_bytes(batch_size=16),
            bandwidth_bytes_per_s=2e12, name="activations",
        ),
    ]
    rng = np.random.default_rng(7)
    for i in range(num_contexts):
        tokens = int(rng.integers(512, 4096))
        objects.append(
            kv_cache_object(
                model.kv_cache_bytes(tokens),
                read_bytes_per_s=3e11,
                append_bytes_per_s=3e6,
                context_lifetime_s=float(rng.uniform(2 * MINUTE, 2 * HOUR)),
                name=f"kv-ctx{i}",
            )
        )
    return objects


def compare_policies() -> None:
    print("=" * 72)
    print("1. Placement policies over {hbm 192G, mrm 512G, lpddr 512G}")
    print("=" * 72)
    objects = build_objects()
    policies = [
        AllHBMPolicy(),
        KindBasedPolicy(),
        LifetimeAwarePolicy(),
        CostGreedyPolicy(),
    ]
    rows = []
    for policy in policies:
        tiers = [
            hbm_tier(192 * GiB),
            mrm_tier(512 * GiB),
            lpddr_tier(512 * GiB),
        ]
        try:
            placement = policy.place(objects, tiers)
        except Exception as exc:
            rows.append([policy.name, "infeasible", "-", "-", str(exc)[:40]])
            continue
        bottleneck_tier, utilization = placement.bottleneck()
        rows.append(
            [
                policy.name,
                f"hbm {placement.used_bytes('hbm') / GiB:.0f}G / "
                f"mrm {placement.used_bytes('mrm') / GiB:.0f}G / "
                f"lpddr {placement.used_bytes('lpddr') / GiB:.0f}G",
                f"{placement.refresh_power_w():.0f} W",
                f"{bottleneck_tier}@{utilization:.0%}",
                "ok" if placement.bandwidth_feasible() else "BW-infeasible",
            ]
        )
    print(
        format_table(
            rows,
            headers=["policy", "bytes per tier", "refresh power",
                     "bottleneck", "feasible"],
        )
    )
    print()


def run_tier_manager() -> None:
    print("=" * 72)
    print("2. Retention-aware TierManager over one simulated day")
    print("=" * 72)
    tiers = [
        hbm_tier(192 * GiB),
        mrm_tier(768 * GiB),
        lpddr_tier(512 * GiB),
    ]
    manager = TierManager(tiers)
    model = LLAMA2_70B
    rng = np.random.default_rng(11)

    # Weights live on MRM for the whole day.
    weights = weights_object(model.weights_bytes, 6e12, name="weights")
    manager.admit(weights, "mrm", now=0.0)
    manager.touch(weights, now=0.0)

    # Contexts arrive through the day; most are short, some go cold.
    now, step = 0.0, 60.0
    live = []
    context_index = 0
    while now < DAY:
        if rng.random() < 0.5:
            tokens = int(rng.integers(512, 4096))
            lifetime = float(rng.choice([5 * MINUTE, 30 * MINUTE, DAY]))
            # Long-lifetime contexts are parked sessions: the user may
            # come back, but nothing is reading the cache meanwhile.
            read_rate = 3e11 if lifetime < HOUR else 1e4
            obj = kv_cache_object(
                model.kv_cache_bytes(tokens), read_rate, 3e6,
                context_lifetime_s=lifetime, name=f"ctx-{context_index}",
            )
            context_index += 1
            if manager.free_bytes("mrm") > obj.size_bytes:
                manager.admit(obj, "mrm", now=now)
                live.append((obj, now + lifetime))
        live = [(o, end) for o, end in live if end > now]
        manager.tick(now=now)
        now += step
    manager.tick(now=now)

    stats = manager.stats
    rows = [
        ["contexts admitted", stats.admitted - 1],
        ["deadline refreshes", stats.refreshed],
        ["migrations to lpddr", stats.migrated],
        ["expired & dropped", stats.dropped],
        ["refresh energy (J)", f"{stats.refresh_energy_j:.1f}"],
        ["migration energy (J)", f"{stats.migration_energy_j:.1f}"],
        ["resident at end", manager.resident_count()],
    ]
    print(format_table(rows))
    print()
    print("-> short contexts expire for free; only data that outlives the")
    print("   MRM retention class pays (refresh or one migration).")


def main() -> None:
    compare_policies()
    run_tier_manager()


if __name__ == "__main__":
    main()
