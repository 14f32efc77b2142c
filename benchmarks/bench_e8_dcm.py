"""E8 — §4: Dynamically Configurable Memory right-provisions retention.

"the control plane ... is best-placed to dynamically decide the
retention period needed for each data when it is written, effectively
right provisioning the MRM to the workload."

Sweeps three controller designs over the inference object mix (weights
shards with day-scale redeploy horizons, KV caches with minute-to-hour
lifetimes): a fixed 30-day (SCM-style) policy, a retention-class menu,
and fully-flexible lifetime matching.  Reports write+refresh energy,
forced refreshes and endurance consumed; asserts DCM's ordering.
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
from repro.units import DAY, GiB, HOUR, MINUTE, MiB


def build_objects(n=300, seed=1):
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(n):
        if rng.random() < 0.05:
            objects.append(
                weights_object(512 * MiB, 1e12)
            )
        else:
            lifetime = float(rng.choice([MINUTE, 10 * MINUTE, HOUR, 6 * HOUR]))
            objects.append(
                kv_cache_object(
                    int(rng.integers(8, 64)) * MiB, 1e10, 1e6,
                    context_lifetime_s=lifetime,
                )
            )
    return objects


def run_policy_sweep():
    device = MRMDevice(MRMConfig(capacity_bytes=64 * GiB))
    objects = build_objects()
    policies = [
        FixedRetentionPolicy(30 * DAY),
        FixedRetentionPolicy(10 * MINUTE),
        RetentionClassPolicy(),
        LifetimeMatchedPolicy(),
    ]
    return [evaluate_policy(p, objects, device) for p in policies]


def test_e8_dcm(benchmark, report):
    scores = benchmark(run_policy_sweep)
    report(
        "E8 — DCM policy sweep over 300 inference objects",
        format_table(
            [
                [s.policy, f"{s.total_energy_j:.3f}", s.refreshes,
                 f"{s.damage_fraction:.2e}"]
                for s in scores
            ],
            headers=["policy", "write+refresh J", "forced refreshes",
                     "endurance consumed"],
        ),
    )
    by = {s.policy: s for s in scores}
    fixed_long = by["fixed(2592000s)"]
    fixed_short = by["fixed(600s)"]
    matched = by["matched(x1.2)"]
    classes = next(s for name, s in by.items() if name.startswith("classes"))
    # DCM beats the over-provisioned fixed policy on energy and wear.
    assert matched.total_energy_j < fixed_long.total_energy_j
    assert matched.damage_fraction < 0.1 * fixed_long.damage_fraction
    # And beats the under-provisioned fixed policy, which pays refreshes.
    assert fixed_short.refreshes > 0
    assert matched.refreshes == 0
    assert matched.total_energy_j < fixed_short.total_energy_j
    # The realistic class menu lands between fixed-long and matched.
    assert (
        matched.total_energy_j
        <= classes.total_energy_j
        <= fixed_long.total_energy_j
    )
