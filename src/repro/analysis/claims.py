"""The claims registry: every paper quote, as an executable check.

EXPERIMENTS.md records a snapshot; this module makes the reproduction
*live*: each :class:`Claim` carries the paper's sentence, where it comes
from, and a check function returning (holds, evidence).  ``python -m
repro claims`` runs them all in seconds — a one-command answer to "does
this repository still reproduce the paper?".

The heavyweight simulations (cluster serving, churn) live in the
benchmark harness; the registry covers the analytically-checkable core
so it stays fast enough to run on every change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.units import GiB, HOUR, YEAR


@dataclass(frozen=True)
class Claim:
    """One checkable statement from the paper."""

    claim_id: str
    section: str
    quote: str
    check: Callable[[], Tuple[bool, str]]

    def run(self) -> "ClaimResult":
        try:
            holds, evidence = self.check()
        except Exception as exc:  # a crashed check is a failed check
            return ClaimResult(self, False, f"check raised: {exc!r}")
        return ClaimResult(self, holds, evidence)


@dataclass(frozen=True)
class ClaimResult:
    claim: Claim
    holds: bool
    evidence: str


def _check_read_write_ratio() -> Tuple[bool, str]:
    from repro.workload.model import LLAMA2_70B_MHA
    from repro.workload.phases import decode_step_traffic

    ratio = decode_step_traffic(LLAMA2_70B_MHA, 2048).read_write_ratio
    return ratio > 1000, f"decode ratio {ratio:.0f}:1 at 2K context (MHA)"


def _check_kv_vector_size() -> Tuple[bool, str]:
    from repro.units import MiB
    from repro.workload.model import LLAMA2_70B_MHA

    size = LLAMA2_70B_MHA.kv_bytes_per_token
    return 1 * MiB <= size <= 8 * MiB, f"MHA vector {size / MiB:.1f} MiB/token"


def _check_weights_range() -> Tuple[bool, str]:
    from repro.workload.model import GPT_CLASS_500B

    fp16 = GPT_CLASS_500B.weights_bytes
    int4 = fp16 / 4
    holds = int4 >= 250e9 and fp16 >= 0.9e12
    return holds, (
        f"500B model: {int4 / 1e9:.0f} GB (INT4) .. {fp16 / 1e12:.2f} TB (FP16)"
    )


def _check_capacity_majority() -> Tuple[bool, str]:
    from repro.endurance.requirements import (
        MEDIAN_OUTPUT_TOKENS,
        MEDIAN_PROMPT_TOKENS,
    )
    from repro.workload.model import LLAMA2_70B

    context = MEDIAN_PROMPT_TOKENS + MEDIAN_OUTPUT_TOKENS
    weights = LLAMA2_70B.weights_bytes
    kv = 16 * LLAMA2_70B.kv_cache_bytes(context)
    act = LLAMA2_70B.activation_bytes(16)
    share = (weights + kv) / (weights + kv + act)
    return share > 0.9, f"weights+KV share {share:.1%} of a replica"


def _check_decode_memory_bound() -> Tuple[bool, str]:
    from repro.inference.accelerator import H100_80G
    from repro.inference.cluster import tensor_parallel_group
    from repro.inference.roofline import Boundedness, RooflineModel
    from repro.workload.model import LLAMA2_70B

    roofline = RooflineModel(tensor_parallel_group(H100_80G, 4))
    timing = roofline.time_decode_step(LLAMA2_70B, 2048, batch_size=16)
    return (
        timing.boundedness is Boundedness.MEMORY,
        f"decode step at batch 16: memory {timing.memory_time_s * 1e3:.1f} ms"
        f" vs compute {timing.compute_time_s * 1e3:.1f} ms",
    )


def _check_hbm_refresh() -> Tuple[bool, str]:
    from repro.tiering.tiers import hbm_tier, mrm_tier

    hbm_idle = hbm_tier(192 * GiB).refresh_power_w()
    mrm_idle = mrm_tier(192 * GiB).refresh_power_w()
    return (
        # Exact zero is the claim itself: non-volatile tiers charge
        # literally no refresh energy (no accumulation, no rounding).
        hbm_idle > 0 and mrm_idle == 0.0,  # repro-lint: disable=RL006
        f"idle refresh power: HBM {hbm_idle:.0f} W, MRM {mrm_idle:.0f} W",
    )


def _check_figure1() -> Tuple[bool, str]:
    from repro.endurance.requirements import check_figure1_shape

    shape = check_figure1_shape()
    return all(shape.values()), str(shape)


def _check_retention_tradeoff() -> Tuple[bool, str]:
    from repro.core.retention import RetentionModel
    from repro.devices.catalog import RRAM_WEEBIT

    model = RetentionModel(RRAM_WEEBIT)
    endurance = model.endurance_cycles(HOUR)
    saving = 1 - model.write_energy_j_per_byte(1.0) / (
        RRAM_WEEBIT.write_energy_j_per_byte
    )
    holds = endurance >= 1e11 and saving > 0.6
    return holds, (
        f"1h retention: endurance {endurance:.1e} (product 1e5); "
        f"1s retention saves {saving:.0%} write energy"
    )


def _check_flash_disqualified() -> Tuple[bool, str]:
    from repro.devices.catalog import NAND_SLC
    from repro.endurance.lifetime import device_lifetime_s
    from repro.endurance.requirements import (
        MACHINE_HBM_BYTES,
        MIXED_TOKENS_PER_S,
    )
    from repro.workload.model import LLAMA2_70B

    rate = MIXED_TOKENS_PER_S * LLAMA2_70B.kv_bytes_per_token
    lifetime = device_lifetime_s(NAND_SLC, MACHINE_HBM_BYTES, rate)
    return lifetime < 5 * YEAR, f"SLC pool lifetime {lifetime / YEAR:.1f} y"


def _check_hbm_density_wall() -> Tuple[bool, str]:
    from repro.devices.hbm import HBM_ROADMAP

    hbm3e = next(g for g in HBM_ROADMAP if g.name == "hbm3e")
    hbm4 = next(g for g in HBM_ROADMAP if g.name == "hbm4")
    step = hbm4.capacity_per_layer_bytes / hbm3e.capacity_per_layer_bytes
    max_layers = max(g.max_layers for g in HBM_ROADMAP)
    return (
        1.2 <= step <= 1.4 and max_layers <= 16,
        f"HBM4 layer step {step:.0%}, roadmap max {max_layers} layers",
    )


def _check_ecc_block_size() -> Tuple[bool, str]:
    from repro.ecc.blockcodes import overhead_vs_block_size
    from repro.ecc.hamming import HammingCodec

    points = overhead_vs_block_size(rber=1e-4, target_block_failure=1e-12,
                                    block_sizes_bits=(64, 65536))
    small, large = points[0].overhead, points[-1].overhead
    secded = HammingCodec(64).overhead
    return (
        large < small and large < secded,
        f"overhead: 64 b {small:.1%} -> 64 Kb {large:.1%} "
        f"(SEC-DED {secded:.1%})",
    )


def _check_mitigations_dont_change_nature() -> Tuple[bool, str]:
    from repro.workload.mitigations import (
        MitigationConfig,
        mitigated_decode_traffic,
    )
    from repro.workload.model import LLAMA2_70B, PHI_3_MINI
    from repro.workload.speculative import SpeculationConfig

    config = MitigationConfig(
        batch_size=16, kv_compression_ratio=4.0, shared_prefix_fraction=0.5,
        speculation=SpeculationConfig(PHI_3_MINI),
    )
    ratio = mitigated_decode_traffic(LLAMA2_70B, config, 2048).read_write_ratio
    return ratio > 1000, f"all mitigations on: still {ratio:.0f}:1"


ALL_CLAIMS: List[Claim] = [
    Claim("rw-ratio", "2.2",
          "read:write ratios of over 1000:1",
          _check_read_write_ratio),
    Claim("kv-vector", "2",
          "Each vector is typically a few MBs",
          _check_kv_vector_size),
    Claim("weights-size", "2",
          "between 250 GB and over 1 TB of data depending on the weight "
          "quantization",
          _check_weights_range),
    Claim("capacity", "2",
          "model weights and the KV cache use up the majority of the "
          "memory capacity",
          _check_capacity_majority),
    Claim("memory-bound", "2.1",
          "a substantial part of every inference query is memory bound",
          _check_decode_memory_bound),
    Claim("refresh", "2.1",
          "HBM fundamentally requires frequent refreshing ... consuming "
          "power even when the memory is idle",
          _check_hbm_refresh),
    Claim("figure1", "3",
          "HBM is vastly overprovisioned on endurance; existing SCM "
          "devices do not meet the endurance requirements but the "
          "underlying technologies have the potential to do so",
          _check_figure1),
    Claim("tradeoff", "3",
          "trading off non-volatility for other key metrics",
          _check_retention_tradeoff),
    Claim("flash", "3",
          "Flash cannot be used because it does not have enough "
          "endurance, even with Single Level Cells",
          _check_flash_disqualified),
    Claim("density-wall", "2.1",
          "HBM4 is only expected to increase capacity per layer by 30% "
          "... not expect it to scale beyond 16 layers",
          _check_hbm_density_wall),
    Claim("ecc", "4",
          "error correction techniques that operate on larger code words "
          "and have less overhead",
          _check_ecc_block_size),
    Claim("mitigations", "2.2",
          "even together they do not fundamentally change the heavily "
          "read-dominated nature of the workload",
          _check_mitigations_dont_change_nature),
]


def run_all_claims() -> List[ClaimResult]:
    """Run every registered claim check."""
    return [claim.run() for claim in ALL_CLAIMS]
