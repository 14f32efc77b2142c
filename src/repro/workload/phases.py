"""The prefill/decode phase traffic equations.

Section 2: "The KV cache is created during the prefill phase ...
Subsequently, in the decode phase the model iteratively generates
response tokens.  For that, at each iteration the KV cache is read
entirely and sequentially, a new token is generated, and the
corresponding self-attention vector is appended".

These two functions are the quantitative form of that paragraph — the
bytes moved and FLOPs burned by each phase.  Everything downstream
(read:write ratios in E1, endurance requirements in F1, the inference
simulator's step times) derives from them.

Batching note: when ``batch_size`` contexts decode together, the weights
are read **once per step**, not once per context — that is precisely the
weight-reuse benefit of batching the paper mentions [3]; KV reads and
writes remain per-context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.workload.model import ModelConfig


@dataclass(frozen=True)
class PhaseTraffic:
    """Memory traffic and compute of one phase execution."""

    bytes_read_weights: float
    bytes_read_kv: float
    bytes_written_kv: float
    flops: float

    @property
    def bytes_read(self) -> float:
        return self.bytes_read_weights + self.bytes_read_kv

    @property
    def bytes_written(self) -> float:
        return self.bytes_written_kv

    @property
    def read_write_ratio(self) -> float:
        if self.bytes_written == 0:
            return float("inf")
        return self.bytes_read / self.bytes_written

    def __add__(self, other: "PhaseTraffic") -> "PhaseTraffic":
        return PhaseTraffic(
            self.bytes_read_weights + other.bytes_read_weights,
            self.bytes_read_kv + other.bytes_read_kv,
            self.bytes_written_kv + other.bytes_written_kv,
            self.flops + other.flops,
        )


ZERO_TRAFFIC = PhaseTraffic(0.0, 0.0, 0.0, 0.0)


def prefill_traffic(model: ModelConfig, prompt_tokens: int) -> PhaseTraffic:
    """Traffic of prefilling one prompt.

    Prefill processes the whole prompt in parallel: weights are read once
    (reused across all prompt tokens — prefill is compute-bound), and one
    KV vector per prompt token is written.  Attention during prefill
    reads the KV entries of earlier tokens; with standard tiled kernels
    this stays on-chip, so the off-package KV read traffic is ~0.
    """
    if prompt_tokens < 1:
        raise ValueError("prompt must have at least one token")
    return PhaseTraffic(
        bytes_read_weights=float(model.weights_bytes),
        bytes_read_kv=0.0,
        bytes_written_kv=float(model.kv_bytes_per_token * prompt_tokens),
        flops=model.prefill_flops(prompt_tokens),
    )


def decode_step_traffic(
    model: ModelConfig, context_tokens: int, batch_size: int = 1
) -> PhaseTraffic:
    """Traffic of one decode step for a batch.

    Every step reads all weights once (amortized over the batch) and,
    per context, reads that context's entire KV cache and appends one
    vector.  ``context_tokens`` is the per-context length (use
    :func:`decode_step_traffic_batch` for heterogeneous batches).
    """
    if context_tokens < 1:
        raise ValueError("context must have at least one token")
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    kv_bytes = float(model.kv_cache_bytes(context_tokens))
    return PhaseTraffic(
        bytes_read_weights=float(model.weights_bytes),
        bytes_read_kv=kv_bytes * batch_size,
        bytes_written_kv=float(model.kv_bytes_per_token * batch_size),
        flops=model.decode_flops_per_token(context_tokens) * batch_size,
    )


def decode_step_traffic_batch(
    model: ModelConfig, context_lengths: Sequence[int]
) -> PhaseTraffic:
    """One decode step for a heterogeneous batch of contexts."""
    if not context_lengths:
        raise ValueError("batch must be non-empty")
    kv_read = 0.0
    flops = 0.0
    for length in context_lengths:
        if length < 1:
            raise ValueError("context must have at least one token")
        kv_read += float(model.kv_cache_bytes(length))
        flops += model.decode_flops_per_token(length)
    return PhaseTraffic(
        bytes_read_weights=float(model.weights_bytes),
        bytes_read_kv=kv_read,
        bytes_written_kv=float(model.kv_bytes_per_token * len(context_lengths)),
        flops=flops,
    )


def decode_leap_traffic(
    model: ModelConfig, context_lengths: Sequence[int], steps: int
) -> PhaseTraffic:
    """``steps`` consecutive decode steps of one unchanged batch.

    Step ``s`` (from 0) decodes every context at its length plus ``s``.
    ``bytes_read_kv`` and ``flops`` are arrays over steps, each element
    equal to what :func:`decode_step_traffic_batch` returns for that
    step: a (steps x batch) matrix of the same per-context expressions,
    added left to right along each row.  Weights read and KV written do
    not change from step to step and stay scalars.
    """
    if not context_lengths:
        raise ValueError("batch must be non-empty")
    if steps < 1:
        raise ValueError("need at least one step")
    base = np.asarray(context_lengths, dtype=np.int64)
    if int(base.min()) < 1:
        raise ValueError("context must have at least one token")
    lengths = base[None, :] + np.arange(steps, dtype=np.int64)[:, None]
    kv_bytes = (lengths * model.kv_bytes_per_token).astype(np.float64)
    # ModelConfig.decode_flops_per_token, operation for operation.
    dense = 2.0 * model.n_params
    attention = 4.0 * model.n_layers * lengths * model.n_kv_heads * model.head_dim
    flops = dense + attention
    return PhaseTraffic(
        bytes_read_weights=float(model.weights_bytes),
        bytes_read_kv=np.add.accumulate(kv_bytes, axis=1)[:, -1],
        bytes_written_kv=float(model.kv_bytes_per_token * len(context_lengths)),
        flops=np.add.accumulate(flops, axis=1)[:, -1],
    )


def full_request_traffic(
    model: ModelConfig, prompt_tokens: int, output_tokens: int, batch_size: int = 1
) -> PhaseTraffic:
    """Aggregate traffic of serving one request end to end.

    Decode steps run at growing context lengths (prompt+1 ... prompt+n);
    weight reads are divided by ``batch_size`` to model amortization over
    co-batched requests.
    """
    if output_tokens < 1:
        raise ValueError("output must have at least one token")
    total = prefill_traffic(model, prompt_tokens)
    kv_read = 0.0
    flops = 0.0
    for step in range(output_tokens):
        context = prompt_tokens + step
        kv_read += float(model.kv_cache_bytes(context))
        flops += model.decode_flops_per_token(context)
    weights_read = float(model.weights_bytes) * output_tokens / batch_size
    decode = PhaseTraffic(
        bytes_read_weights=weights_read,
        bytes_read_kv=kv_read,
        bytes_written_kv=float(model.kv_bytes_per_token * output_tokens),
        flops=flops,
    )
    return total + decode
