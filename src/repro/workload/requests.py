"""Inference requests and arrival processes.

Section 4 notes the workload is diversifying: "some use cases have tight
latency SLAs (e.g., user-in-the-loop conversation), some are throughput
hungry and heavily use batching, others are background best-effort jobs".
:class:`SLAClass` encodes those three tiers; the tiering scheduler uses
them to decide which contexts may ride slower tiers.

Arrival processes:

- :class:`PoissonArrivals` — memoryless baseline.
- :class:`BurstyArrivals` — a two-state Markov-modulated Poisson process
  (quiet/burst), matching the diurnal/bursty behaviour production LLM
  traffic exhibits.
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

    ``prefix_key`` identifies a shared prompt prefix (e.g. a system
    prompt): requests with the same key can share KV pages when prefix
    caching [54] is enabled.

    ``cached_prompt_tokens`` models a multi-turn follow-up whose
    conversation history's KV is already resident (kept hot, restored
    from an offload tier, or carried by MRM retention): prefill only
    computes the remaining ``prompt_tokens - cached_prompt_tokens``.
    """

    arrival_time: float
    prompt_tokens: int
    output_tokens: int
    sla: SLAClass = SLAClass.INTERACTIVE
    prefix_key: Optional[str] = None
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

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.output_tokens

    def kv_cache_bytes_final(self, model: ModelConfig) -> int:
        """KV-cache size once the context is fully generated."""
        return model.kv_cache_bytes(self.total_tokens)


class ArrivalProcess:
    """Base: generates inter-arrival gaps."""

    def next_gap(self, rng: np.random.Generator) -> float:
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate_per_s``."""

    def __init__(self, rate_per_s: float) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        self.rate_per_s = rate_per_s

    def next_gap(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rate_per_s))


class BurstyArrivals(ArrivalProcess):
    """Two-state MMPP: alternating quiet and burst phases.

    Parameters
    ----------
    base_rate_per_s / burst_rate_per_s:
        Arrival rates in each state.
    mean_quiet_s / mean_burst_s:
        Mean sojourn time in each state (exponential).
    """

    def __init__(
        self,
        base_rate_per_s: float,
        burst_rate_per_s: float,
        mean_quiet_s: float = 60.0,
        mean_burst_s: float = 10.0,
    ) -> None:
        if base_rate_per_s <= 0 or burst_rate_per_s <= 0:
            raise ValueError("rates must be positive")
        if burst_rate_per_s < base_rate_per_s:
            raise ValueError("burst rate should be >= base rate")
        if mean_quiet_s <= 0 or mean_burst_s <= 0:
            raise ValueError("sojourn times must be positive")
        self.base_rate_per_s = base_rate_per_s
        self.burst_rate_per_s = burst_rate_per_s
        self.mean_quiet_s = mean_quiet_s
        self.mean_burst_s = mean_burst_s
        self._in_burst = False
        self._state_time_left = 0.0

    def next_gap(self, rng: np.random.Generator) -> float:
        gap = 0.0
        while True:
            if self._state_time_left <= 0.0:
                self._in_burst = not self._in_burst
                mean = self.mean_burst_s if self._in_burst else self.mean_quiet_s
                self._state_time_left = float(rng.exponential(mean))
            rate = self.burst_rate_per_s if self._in_burst else self.base_rate_per_s
            candidate = float(rng.exponential(1.0 / rate))
            if candidate <= self._state_time_left:
                self._state_time_left -= candidate
                return gap + candidate
            # State flips before the next arrival: consume the remainder
            # and resample in the new state (thinning).
            gap += self._state_time_left
            self._state_time_left = 0.0


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
        arrivals: ArrivalProcess,
        model: ModelConfig,
        sla_mix: Optional[dict] = None,
        prefix_keys: Optional[list] = None,
        prefix_probability: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.profile = profile
        self.arrivals = arrivals
        self.model = model
        self.sla_mix = sla_mix or {SLAClass.INTERACTIVE: 1.0}
        total = sum(self.sla_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"SLA mix must sum to 1, got {total}")
        if not 0.0 <= prefix_probability <= 1.0:
            raise ValueError("prefix probability in [0, 1]")
        if prefix_probability > 0 and not prefix_keys:
            raise ValueError("prefix_probability > 0 needs prefix_keys")
        self.prefix_keys = list(prefix_keys or [])
        self.prefix_probability = prefix_probability
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
            prefix_key = None
            if self.prefix_keys and self.rng.random() < self.prefix_probability:
                prefix_key = self.prefix_keys[
                    int(self.rng.integers(len(self.prefix_keys)))
                ]
            yield InferenceRequest(
                arrival_time=now,
                prompt_tokens=prompt,
                output_tokens=output,
                sla=self._draw_sla(),
                prefix_key=prefix_key,
            )
            emitted += 1
