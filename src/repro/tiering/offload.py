"""Idle-KV offload: multi-turn conversations and the cold-cache problem.

Related work the paper builds on: "it has been proposed to use CPU main
memory for offloading idle KV caches [49]" (CXL-attached in the cited
work).  Between turns of a conversation the context's KV cache is pure
dead weight in the fast tier — but dropping it means an expensive
prefill recomputation when the user returns.

:class:`OffloadSimulator` models the three-way policy space for a
population of multi-turn conversations with think times:

- ``keep``     — KV stays in the fast tier between turns (burns
  capacity, instant resume);
- ``offload``  — KV moves to a slow tier at turn end and streams back on
  resume (transfer latency, frees fast capacity);
- ``drop``     — KV is discarded and recomputed by a fresh prefill on
  resume (compute cost, frees everything).

MRM adds the fourth option the paper implies:

- ``mrm``      — KV is *already* in MRM with retention covering the
  think time: resume is free, no fast-tier capacity was ever held.

Scored on: fast-tier capacity-seconds consumed, resume latency, and
recompute compute-seconds — the quantities a serving operator trades.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.inference.accelerator import AcceleratorConfig
from repro.inference.roofline import RooflineModel
from repro.workload.model import ModelConfig
from repro.workload.phases import prefill_traffic

#: Fast<->slow tier transfer bandwidth for the ``offload`` policy
#: (PCIe/CXL-class, ~50 GB/s).
OFFLOAD_BANDWIDTH = 50e9


@dataclass(frozen=True)
class ConversationShape:
    """Multi-turn conversation statistics."""

    turns_mean: float = 4.0
    think_time_mean_s: float = 90.0
    turn_prompt_tokens: int = 256
    turn_output_tokens: int = 128

    def __post_init__(self) -> None:
        if self.turns_mean < 1 or self.think_time_mean_s <= 0:
            raise ValueError("bad conversation shape")


@dataclass
class OffloadScore:
    """Cost of one policy over the conversation population."""

    policy: str
    fast_tier_byte_seconds: float = 0.0
    resume_latency_total_s: float = 0.0
    recompute_flops: float = 0.0
    resumes: int = 0

    @property
    def mean_resume_latency_s(self) -> float:
        if self.resumes == 0:
            return 0.0
        return self.resume_latency_total_s / self.resumes


class OffloadSimulator:
    """Analytic comparison of idle-KV policies.

    Parameters
    ----------
    model / accelerator:
        For KV sizing and prefill recompute timing.
    """

    POLICIES = ("keep", "offload", "drop", "mrm")

    def __init__(
        self,
        model: ModelConfig,
        accelerator: AcceleratorConfig,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.roofline = RooflineModel(accelerator)
        self.seed = seed

    def _conversations(
        self, count: int, shape: ConversationShape
    ) -> List[List[float]]:
        """Per conversation: the think times between its turns."""
        rng = np.random.default_rng(self.seed)
        conversations = []
        for _ in range(count):
            turns = max(1, int(rng.poisson(shape.turns_mean)))
            thinks = rng.exponential(shape.think_time_mean_s, size=turns - 1)
            conversations.append(list(thinks))
        return conversations

    def evaluate(
        self,
        policy: str,
        count: int = 100,
        shape: Optional[ConversationShape] = None,
    ) -> OffloadScore:
        """Score one policy over ``count`` conversations."""
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}; use {self.POLICIES}")
        shape = shape or ConversationShape()
        score = OffloadScore(policy=policy)
        per_turn_tokens = shape.turn_prompt_tokens + shape.turn_output_tokens
        for thinks in self._conversations(count, shape):
            context_tokens = per_turn_tokens  # after the first turn
            for think_s in thinks:
                kv_bytes = self.model.kv_cache_bytes(context_tokens)
                score.resumes += 1
                if policy == "keep":
                    score.fast_tier_byte_seconds += kv_bytes * think_s
                elif policy == "offload":
                    transfer = kv_bytes / OFFLOAD_BANDWIDTH
                    # out at turn end, back at resume
                    score.resume_latency_total_s += transfer
                elif policy == "drop":
                    traffic = prefill_traffic(self.model, context_tokens)
                    timing = self.roofline.time_step(
                        traffic.flops,
                        {"hbm": traffic.bytes_read},
                        {"hbm": traffic.bytes_written},
                    )
                    score.recompute_flops += traffic.flops
                    score.resume_latency_total_s += timing.duration_s
                elif policy == "mrm":
                    # KV was written to MRM with retention >= think time:
                    # nothing held in the fast tier, nothing to restore.
                    pass
                context_tokens += per_turn_tokens
        return score

    def compare(
        self, count: int = 100, shape: Optional[ConversationShape] = None
    ) -> Dict[str, OffloadScore]:
        """All four policies on the same conversation population."""
        return {
            policy: self.evaluate(policy, count, shape)
            for policy in self.POLICIES
        }
