"""Speculative decoding: the traffic model.

Section 4 lists "speculative execution [31]" among the OS mechanisms the
rack-scale inference OS leans on.  For memory, speculation matters
because it changes the decode traffic shape: a small draft model
proposes ``draft_tokens`` tokens and the target model verifies them in
**one** forward pass — so the target's weights and the KV cache are
read once per *accepted run* of tokens instead of once per token.

Model (standard speculative-decoding arithmetic):

- the draft proposes ``k`` tokens, each independently accepted with
  probability ``alpha``;
- expected accepted tokens per verify step, including the bonus token
  the verify pass itself produces:
  ``E[tokens] = (1 - alpha^(k+1)) / (1 - alpha)``;
- the draft model's own weights/KV are read ``k`` times per step
  (small, but not free).

The net effect on the paper's argument is an *ablation*: speculation
divides the per-token weight-read traffic by ``E[tokens]``, but leaves
the workload exactly as read-dominated, sequential and append-only as
before — see ``benchmarks/bench_a1_mitigations.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workload.model import ModelConfig
from repro.workload.phases import PhaseTraffic


@dataclass(frozen=True)
class SpeculationConfig:
    """Speculative-decoding parameters.

    Attributes
    ----------
    draft_model:
        The small proposer (e.g. a 1-3B model).
    draft_tokens:
        Tokens proposed per verify step (k).
    acceptance_rate:
        Per-token probability the target accepts a draft token (alpha).
    """

    draft_model: ModelConfig
    draft_tokens: int = 4
    acceptance_rate: float = 0.7

    def __post_init__(self) -> None:
        if self.draft_tokens < 1:
            raise ValueError("must draft at least one token")
        if not 0.0 <= self.acceptance_rate < 1.0:
            raise ValueError("acceptance rate must be in [0, 1)")

    def expected_tokens_per_step(self) -> float:
        """Expected tokens emitted per verify step (incl. the bonus
        token): ``(1 - alpha^(k+1)) / (1 - alpha)``; >= 1 always."""
        a = self.acceptance_rate
        k = self.draft_tokens
        # No zero guard needed: at a == 0, 0**(k+1) == 0 exactly, so the
        # formula returns 1.0 (no draft accepted; only the bonus token),
        # and the denominator 1 - a is bounded away from 0 because
        # __post_init__ enforces a < 1.
        return (1.0 - a ** (k + 1)) / (1.0 - a)


def speculative_decode_step_traffic(
    target: ModelConfig,
    speculation: SpeculationConfig,
    context_tokens: int,
    batch_size: int = 1,
) -> PhaseTraffic:
    """Traffic of one speculative verify step for a batch.

    The target model's weights and each context's KV are read once for
    the whole verify; the draft model runs ``draft_tokens`` ordinary
    decode steps (its own weights read each time; its KV is an order of
    magnitude smaller and modeled at the same ratio).  KV *appends* are
    one vector per emitted token — the write stream is unchanged per
    token, which is why speculation does not rescue write-limited
    technologies.
    """
    if context_tokens < 1:
        raise ValueError("context must have at least one token")
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    emitted = speculation.expected_tokens_per_step()
    kv_bytes = float(target.kv_cache_bytes(context_tokens)) * batch_size
    draft = speculation.draft_model
    # The draft runs `draft_tokens` ordinary decode steps: its weights
    # are read per step, and each context's draft KV cache is scanned
    # per step.
    draft_reads = (
        float(draft.weights_bytes) * speculation.draft_tokens
        + float(draft.kv_cache_bytes(context_tokens))
        * speculation.draft_tokens
        * batch_size
    )
    flops = (
        target.decode_flops_per_token(context_tokens)
        * (speculation.draft_tokens + 1)
        * batch_size
        + draft.decode_flops_per_token(context_tokens)
        * speculation.draft_tokens
        * batch_size
    )
    return PhaseTraffic(
        bytes_read_weights=float(target.weights_bytes) + draft_reads,
        bytes_read_kv=kv_bytes,
        bytes_written_kv=float(target.kv_bytes_per_token) * emitted * batch_size,
        flops=flops,
    )
