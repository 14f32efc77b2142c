"""A3 (ablation) — retention-class zone affinity in the controller.

DESIGN.md design choice: the MRM controller buckets writes into zones
by log2(retention) so a zone's blocks expire together and the whole
zone resets without copying.  This ablation runs the same mixed-
retention churn with affinity on and off and measures zone recycling.

With affinity OFF, short-lived blocks get stranded behind long-lived
neighbours in the same zone: the zone cannot reset until its longest
deadline passes, reclamation stalls, and under sustained churn the
device simply runs out of zones — the append-only analogue of
GC death spiral.

Asserted shape: the affinity configuration sustains the churn
indefinitely at stable occupancy; the no-affinity configuration
exhausts the device (or, at best, recycles strictly fewer zones).
"""

from repro.analysis.figures import format_table
from repro.core.controller import MRMController
from repro.core.mrm import MRMConfig, MRMDevice
from repro.units import MiB


def run_churn(retention_affinity: bool, rounds=60):
    device = MRMDevice(
        MRMConfig(
            capacity_bytes=256 * MiB,
            block_bytes=MiB,
            blocks_per_zone=8,
        )
    )
    controller = MRMController(device, retention_affinity=retention_affinity)
    now = 0.0
    occupancy_samples = []
    survived_rounds = 0
    exhausted = False
    for round_index in range(rounds):
        try:
            # Interleave short-lived (60 s) and long-lived (1 hour) data
            # the way mixed KV traffic does.
            controller.write(4 * MiB, 60.0, now=now)
            controller.write(4 * MiB, 3600.0, now=now)
        except RuntimeError:
            exhausted = True  # no empty zones: the device is wedged
            break
        survived_rounds += 1
        now += 90.0  # short-lived data is dead before the next round
        controller.tick(now=now)
        occupancy_samples.append(controller.occupancy())
    tail = occupancy_samples[len(occupancy_samples) // 2:]
    steady = sum(tail) / len(tail) if tail else 1.0
    return {
        "affinity": retention_affinity,
        "zones_reclaimed": controller.stats.zones_reclaimed,
        "steady_occupancy": steady,
        "survived_rounds": survived_rounds,
        "exhausted": exhausted,
    }


def run_ablation():
    return [run_churn(True), run_churn(False)]


def test_a3_zone_affinity(benchmark, report):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    report(
        "A3 — retention-class zone affinity (mixed 60 s / 1 h churn)",
        format_table(
            [
                ["on" if r["affinity"] else "off", r["zones_reclaimed"],
                 f"{r['steady_occupancy']:.1%}", r["survived_rounds"],
                 "EXHAUSTED" if r["exhausted"] else "stable"]
                for r in rows
            ],
            headers=["affinity", "zones reclaimed", "steady occupancy",
                     "rounds survived", "outcome"],
        ),
    )
    with_affinity, without = rows
    # Affinity sustains the churn indefinitely...
    assert not with_affinity["exhausted"]
    assert with_affinity["steady_occupancy"] < 0.8
    # ...while mixing deadlines in zones wedges the device (or at the
    # very least recycles strictly fewer zones).
    assert without["exhausted"] or (
        without["zones_reclaimed"] < with_affinity["zones_reclaimed"]
    )
