"""Inference requests and arrival processes.

Section 4 notes the workload is diversifying: "some use cases have tight
latency SLAs (e.g., user-in-the-loop conversation), some are throughput
hungry and heavily use batching, others are background best-effort jobs".
:class:`SLAClass` encodes those three tiers; the tiering scheduler uses
them to decide which contexts may ride slower tiers.

:class:`PoissonArrivals` is the memoryless arrival process; the fleet's
quiet/burst traffic has its own generator (:mod:`repro.fleet.arrivals`).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.workload.distributions import TokenLengthProfile
from repro.workload.model import ModelConfig


class SLAClass(enum.Enum):
    """Latency expectations of a request (Section 4)."""

    INTERACTIVE = "interactive"  # user-in-the-loop, tight TTFT/TBT
    THROUGHPUT = "throughput"  # batch-friendly, aggregate tokens/s matters
    BEST_EFFORT = "best-effort"  # background jobs (e.g. meeting recap)


_request_ids = itertools.count()


@dataclass
class InferenceRequest:
    """One inference query: a prompt and a (realized) output length.

    ``output_tokens`` is the ground-truth number of tokens the model will
    generate — simulations know it up front (oracle), schedulers must not
    peek unless the policy explicitly allows it.

    ``cached_prompt_tokens`` models a multi-turn follow-up whose
    conversation history's KV is already resident (kept hot, restored
    from an offload tier, or carried by MRM retention): prefill only
    computes the remaining ``prompt_tokens - cached_prompt_tokens``.
    """

    arrival_time: float
    prompt_tokens: int
    output_tokens: int
    sla: SLAClass = SLAClass.INTERACTIVE
    cached_prompt_tokens: int = 0
    request_id: int = field(default_factory=lambda: next(_request_ids))

    def __post_init__(self) -> None:
        if self.prompt_tokens < 1:
            raise ValueError("prompt must have at least one token")
        if self.output_tokens < 1:
            raise ValueError("output must have at least one token")
        if self.arrival_time < 0:
            raise ValueError("arrival time must be >= 0")
        if not 0 <= self.cached_prompt_tokens < self.prompt_tokens:
            raise ValueError(
                "cached tokens must be in [0, prompt_tokens)"
            )


class PoissonArrivals:
    """Memoryless arrivals at ``rate_per_s``."""

    def __init__(self, rate_per_s: float) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        self.rate_per_s = rate_per_s

    def next_gap(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rate_per_s))


class RequestGenerator:
    """Generates a reproducible stream of :class:`InferenceRequest`.

    Parameters
    ----------
    profile:
        Token-length profile (e.g. ``SPLITWISE_CONVERSATION``).
    arrivals:
        The arrival process.
    model:
        Used only to clamp token counts to the context limit.
    sla_mix:
        Probabilities of each SLA class, summing to 1.
    seed:
        Seed for the private RNG.
    """

    def __init__(
        self,
        profile: TokenLengthProfile,
        arrivals: PoissonArrivals,
        model: ModelConfig,
        sla_mix: Optional[dict] = None,
        seed: int = 0,
    ) -> None:
        self.profile = profile
        self.arrivals = arrivals
        self.model = model
        self.sla_mix = sla_mix or {SLAClass.INTERACTIVE: 1.0}
        total = sum(self.sla_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"SLA mix must sum to 1, got {total}")
        self.rng = np.random.default_rng(seed)
        # Precomputed once: rebuilding these per request dominated the
        # generator's profile on long traces.  Same draws, same stream.
        self._sla_classes = list(self.sla_mix.keys())
        self._sla_probs = np.array(
            [self.sla_mix[c] for c in self._sla_classes], dtype=np.float64
        )

    def _draw_sla(self) -> SLAClass:
        index = self.rng.choice(len(self._sla_classes), p=self._sla_probs)
        return self._sla_classes[int(index)]

    def generate(
        self, duration_s: Optional[float] = None, count: Optional[int] = None
    ) -> Iterator[InferenceRequest]:
        """Yield requests until ``duration_s`` of simulated arrivals or
        ``count`` requests, whichever comes first (at least one bound
        required)."""
        if duration_s is None and count is None:
            raise ValueError("provide duration_s and/or count")
        now = 0.0
        emitted = 0
        while True:
            now += self.arrivals.next_gap(self.rng)
            if duration_s is not None and now > duration_s:
                return
            if count is not None and emitted >= count:
                return
            prompt, output = self.profile.sample(
                self.rng, self.model.context_limit_tokens
            )
            yield InferenceRequest(
                arrival_time=now,
                prompt_tokens=prompt,
                output_tokens=output,
                sla=self._draw_sla(),
            )
            emitted += 1
