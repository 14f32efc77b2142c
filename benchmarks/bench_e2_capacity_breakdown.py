"""E2 — §2: weights and KV cache dominate memory capacity.

"Of these, model weights and the KV cache use up the majority of the
memory capacity [22]" and activations are "typically an order of
magnitude smaller than both."

Regenerates the capacity breakdown of a serving replica (weights +
per-context KV at the Splitwise median + activations) for three model
classes, and asserts both claims.
"""

from repro.analysis.figures import format_table
from repro.endurance.requirements import (
    MEDIAN_OUTPUT_TOKENS,
    MEDIAN_PROMPT_TOKENS,
)
from repro.units import GiB
from repro.workload.model import GPT_CLASS_500B, LLAMA2_13B, LLAMA2_70B


def run_breakdown(batch_size=16):
    context = MEDIAN_PROMPT_TOKENS + MEDIAN_OUTPUT_TOKENS
    rows = []
    for model in (LLAMA2_13B, LLAMA2_70B, GPT_CLASS_500B):
        weights = model.weights_bytes
        kv = batch_size * model.kv_cache_bytes(context)
        activations = model.activation_bytes(batch_size)
        total = weights + kv + activations
        rows.append(
            {
                "model": model.name,
                "weights_gib": weights / GiB,
                "kv_gib": kv / GiB,
                "act_gib": activations / GiB,
                "weights_kv_share": (weights + kv) / total,
                "act_ratio_vs_kv": kv / activations,
            }
        )
    return rows


def test_e2_capacity_breakdown(benchmark, report):
    rows = benchmark(run_breakdown)
    report(
        "E2 — replica capacity breakdown (batch 16, Splitwise median context)",
        format_table(
            [
                [r["model"], f"{r['weights_gib']:.1f}", f"{r['kv_gib']:.1f}",
                 f"{r['act_gib']:.2f}", f"{r['weights_kv_share']:.1%}"]
                for r in rows
            ],
            headers=["model", "weights GiB", "KV GiB", "activations GiB",
                     "weights+KV share"],
        ),
    )
    for r in rows:
        assert r["weights_kv_share"] > 0.9  # "majority of the capacity"
        assert r["act_ratio_vs_kv"] > 5  # order-of-magnitude smaller
