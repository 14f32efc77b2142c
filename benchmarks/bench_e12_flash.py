"""E12 — §3: Flash cannot serve as the inference memory.

"Flash cannot be used because it does not have enough endurance, even
with Single Level Cells (SLC) [7], and cannot satisfy the high
throughput and energy efficiency requirements [14, 36]."

Regenerates the three disqualifications against the Splitwise KV write
stream on a 640 GB machine:
1. endurance: SLC/TLC pool lifetime under the stream (vs 5-year target)
   — and it is endurance, not capacity, that kills it;
2. throughput: decode-step read time from Flash vs HBM vs MRM;
3. energy: per-byte read energy ranking.
"""

from repro.analysis.figures import format_table
from repro.devices.catalog import HBM3E, NAND_SLC, NAND_TLC
from repro.endurance.lifetime import device_lifetime_s
from repro.endurance.requirements import MACHINE_HBM_BYTES, MIXED_TOKENS_PER_S
from repro.tiering.tiers import MRM_PROFILE
from repro.units import YEAR, seconds_to_human
from repro.workload.model import LLAMA2_70B
from repro.workload.phases import decode_step_traffic


def run_flash_analysis():
    kv_rate = MIXED_TOKENS_PER_S * LLAMA2_70B.kv_bytes_per_token
    capacity = MACHINE_HBM_BYTES

    lifetimes = [
        (profile.name, device_lifetime_s(profile, capacity, kv_rate))
        for profile in (NAND_TLC, NAND_SLC, MRM_PROFILE, HBM3E)
    ]

    traffic = decode_step_traffic(LLAMA2_70B, context_tokens=2048,
                                  batch_size=16)
    # Per-device sequential read time for one decode step's bytes
    # (device counts scaled to equal capacity).
    step_reads = []
    for profile, units in ((NAND_SLC, 8), (HBM3E, 8), (MRM_PROFILE, 8)):
        bandwidth = profile.read_bandwidth * units
        step_reads.append(
            (profile.name, traffic.bytes_read / bandwidth,
             profile.read_energy_j_per_byte)
        )
    return lifetimes, step_reads


def test_e12_flash(benchmark, report):
    lifetimes, step_reads = benchmark(run_flash_analysis)
    body = "Pool lifetime under the Splitwise KV write stream (640 GB):\n"
    body += format_table(
        [[name, seconds_to_human(t), "yes" if t >= 5 * YEAR else "NO"]
         for name, t in lifetimes],
        headers=["technology", "lifetime", "survives 5y?"],
    )
    body += "\n\nDecode-step read time (2048-ctx, batch 16) and read energy:\n"
    body += format_table(
        [[name, f"{t * 1e3:.1f} ms", f"{e * 1e12 / 8:.0f} pJ/bit"]
         for name, t, e in step_reads],
        headers=["technology", "step read time", "read energy"],
    )
    report("E12 — why Flash is disqualified", body)

    by_name = dict(lifetimes)
    assert by_name["nand-tlc"] < 5 * YEAR
    assert by_name["nand-slc"] < 5 * YEAR  # "even with SLC"
    assert by_name[next(n for n in by_name if n.startswith("mrm"))] > 5 * YEAR
    assert by_name["hbm3e"] > 5 * YEAR

    reads = {name: t for name, t, _e in step_reads}
    flash_time = reads["nand-slc"]
    hbm_time = reads["hbm3e"]
    assert flash_time > 50 * hbm_time  # nowhere near the bandwidth
