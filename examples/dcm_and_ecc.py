#!/usr/bin/env python3
"""Scenario: Dynamically Configurable Memory + retention-aware ECC.

The two Section-4 mechanisms that turn retention into a runtime knob:

1. DCM — choose a retention per write from the data's lifetime.
   Compare three controller designs over a mixed object stream:
   fixed 30-day retention (SCM-style), a 6-class retention menu, and
   fully-flexible lifetime matching.
2. Retention-aware ECC — for each retention class, the cheapest BCH
   code that holds the uncorrectable rate at the worst read age, next
   to the (72,64) SEC-DED overhead HBM pays today, and the Dolinar
   block-size curve.

Run:  python examples/dcm_and_ecc.py
"""

import numpy as np

from repro.analysis.figures import format_table
from repro.core.dcm import (
    FixedRetentionPolicy,
    LifetimeMatchedPolicy,
    RetentionClassPolicy,
    evaluate_policy,
)
from repro.core.mrm import MRMConfig, MRMDevice
from repro.core.placement import kv_cache_object, weights_object
from repro.ecc.blockcodes import overhead_vs_block_size
from repro.ecc.hamming import HammingCodec
from repro.ecc.policy import RetentionAwareECC
from repro.units import DAY, GiB, HOUR, MINUTE, MiB, seconds_to_human


def build_stream(n=200):
    """A mixed stream: mostly short-lived KV, some weight replicas."""
    rng = np.random.default_rng(3)
    objects = []
    for i in range(n):
        if rng.random() < 0.05:
            objects.append(
                weights_object(
                    256 * MiB, read_bytes_per_s=1e12,
                    name=f"weights-shard-{i}",
                )
            )
        else:
            lifetime = float(
                rng.choice([MINUTE, 10 * MINUTE, HOUR, 6 * HOUR])
            )
            objects.append(
                kv_cache_object(
                    int(rng.integers(8, 64)) * MiB, 1e10, 1e6,
                    context_lifetime_s=lifetime, name=f"kv-{i}",
                )
            )
    return objects


def compare_dcm_policies() -> None:
    print("=" * 72)
    print("1. DCM: retention-per-write policies over 200 mixed objects")
    print("=" * 72)
    device = MRMDevice(MRMConfig(capacity_bytes=64 * GiB))
    objects = build_stream()
    policies = [
        FixedRetentionPolicy(30 * DAY),  # "SCM firmware": one strength
        RetentionClassPolicy(),  # realistic: a class menu
        LifetimeMatchedPolicy(),  # fully-flexible DCM
    ]
    rows = []
    for policy in policies:
        score = evaluate_policy(policy, objects, device)
        rows.append(
            [
                policy.name,
                f"{score.total_energy_j:.3f}",
                f"{score.refreshes}",
                f"{score.damage_fraction:.2e}",
            ]
        )
    print(
        format_table(
            rows,
            headers=["policy", "write+refresh energy (J)",
                     "forced refreshes", "endurance consumed"],
        )
    )
    print()


def show_retention_aware_ecc() -> None:
    print("=" * 72)
    print("2. Retention-aware ECC (4 KiB MRM blocks, budget 1e-15/read)")
    print("=" * 72)
    policy = RetentionAwareECC(block_data_bits=4096 * 8,
                               target_block_failure=1e-15)
    read_horizon = 10 * MINUTE  # data is always refreshed/dead by then
    rows = []
    for retention in (10 * MINUTE, HOUR, 6 * HOUR, DAY):
        choice = policy.choose(
            spec_retention_s=retention, worst_read_age_s=read_horizon
        )
        rows.append(
            [
                seconds_to_human(retention),
                f"{choice.worst_rber:.1e}",
                choice.code.t,
                f"{choice.overhead:.2%}",
            ]
        )
    print("reads always happen within 10 min of the write; the cell may be")
    print("programmed harder (longer retention) to let the code shrink:")
    print(
        format_table(
            rows,
            headers=["programmed retention", "RBER at 10 min",
                     "BCH t", "storage overhead"],
        )
    )
    secded = HammingCodec(64)
    print(f"\n(72,64) SEC-DED overhead HBM pays today: {secded.overhead:.2%}")

    print()
    print("Dolinar block-size effect at RBER 1e-4 (equal per-bit protection):")
    points = overhead_vs_block_size(rber=1e-4, target_block_failure=1e-12)
    rows = [
        [f"{p.data_bits} b", p.code.t, f"{p.overhead:.2%}"] for p in points
    ]
    print(format_table(rows, headers=["code word", "t", "overhead"]))
    print()
    print("-> MRM's large blocks let ECC amortize: less redundancy at the")
    print("   same protection, exactly the paper's [8] argument.")


def main() -> None:
    compare_dcm_policies()
    show_retention_aware_ecc()


if __name__ == "__main__":
    main()
