"""E6 — §3: matching retention to lifetime eliminates housekeeping.

"DRAM's retention is too short, requiring frequent refreshes.  Flash
retention is too long, which is achieved at the expense of endurance,
requiring FTL mechanisms (wear levelling, garbage collection) ...
matching retention to the lifetime of the data makes refresh, deletion,
or wear-leveling unnecessary."

One workload, three devices: a KV-cache-shaped churn (write a context,
serve it, let it die) applied to (a) DRAM — pays refresh forever,
(b) SLC Flash behind an FTL — pays GC write amplification, (c) MRM with
matched retention — pays neither.  Reports housekeeping bytes/energy
per useful byte written.
"""

import random

from repro.analysis.figures import format_table
from repro.core.controller import MRMController
from repro.core.mrm import MRMConfig, MRMDevice
from repro.devices.dram import DRAMDevice
from repro.devices.flash import FlashDevice
from repro.units import MiB


def run_housekeeping(rounds=30, working_set=48 * MiB, capacity=64 * MiB):
    lifetime_s = 60.0
    duration = rounds * lifetime_s

    # (a) DRAM: refresh runs the whole time regardless of the churn.
    dram = DRAMDevice(capacity_bytes=capacity)
    for _ in range(rounds):
        dram.write(0, working_set)
    dram.accrue_refresh_energy(duration)

    # (b) Flash + FTL: dead contexts are overwritten in place (no TRIM
    # hinting — the storage-stack default), forcing GC copies.
    flash = FlashDevice(capacity_bytes=capacity, overprovision=0.1)
    page = flash.page_bytes
    pages_per_round = working_set // page
    total_pages = flash.logical_capacity_bytes // page
    rnd = random.Random(0)
    for _ in range(rounds):
        start = rnd.randrange(max(1, total_pages - pages_per_round))
        for index in range(pages_per_round):
            flash.write((start + index) * page, page)

    # (c) MRM: retention == lifetime; zones recycle, nothing is copied.
    mrm = MRMDevice(
        MRMConfig(capacity_bytes=capacity, block_bytes=MiB,
                  blocks_per_zone=8, min_retention_s=1.0)
    )
    controller = MRMController(mrm)
    now = 0.0
    for _ in range(rounds):
        controller.write(working_set, lifetime_s, now=now)
        now += lifetime_s * 2
        controller.tick(now=now)

    useful = rounds * working_set

    def row(name, device, extra_bytes, housekeeping_j):
        return {
            "device": name,
            "housekeeping_bytes_per_useful": extra_bytes / useful,
            "housekeeping_j": housekeeping_j,
        }

    rows = [
        row("dram (refresh)", dram, dram.counters.bytes_refreshed,
            dram.counters.refresh_energy_j),
        row("flash+ftl (GC)", flash,
            flash.ftl.gc_pages_copied * page,
            flash.ftl.gc_pages_copied * page
            * flash.profile.write_energy_j_per_byte),
        row("mrm (matched)", mrm, mrm.counters.bytes_refreshed,
            mrm.counters.refresh_energy_j),
    ]
    return rows


def test_e6_housekeeping(benchmark, report):
    rows = benchmark.pedantic(run_housekeeping, rounds=1, iterations=1)
    report(
        "E6 — housekeeping tax per useful byte written (30 rounds of churn)",
        format_table(
            [
                [r["device"], f"{r['housekeeping_bytes_per_useful']:.2f}",
                 f"{r['housekeeping_j']:.3g}"]
                for r in rows
            ],
            headers=["device", "housekeeping bytes / useful byte",
                     "housekeeping J"],
        ),
    )
    by = {r["device"]: r for r in rows}
    assert by["dram (refresh)"]["housekeeping_bytes_per_useful"] > 1.0
    assert by["flash+ftl (GC)"]["housekeeping_bytes_per_useful"] > 0.05
    assert by["mrm (matched)"]["housekeeping_bytes_per_useful"] == 0.0
    assert by["mrm (matched)"]["housekeeping_j"] == 0.0
