"""Seeded distributions and Splitwise-calibrated token-length profiles.

The paper calibrates its endurance arithmetic to "the throughputs and
median context lengths reported for the Llama2-70B model in Splitwise
[37]".  We have no access to the underlying production traces (they are
Azure-internal), so — per the substitution rule in DESIGN.md — this
module synthesizes request shapes from the *published* Splitwise
statistics:

- the conversation trace: median prompt ~1020 tokens, median output
  ~129 tokens;
- the coding trace: median prompt ~1930 tokens, median output ~13
  tokens (long prompts, terse completions).

Token counts are modeled as clamped log-normals fitted to those medians
with dispersion chosen to match the papers' reported long tails.  The
shapes (read:write ratios, endurance requirements, phase balance) the
experiments measure depend on medians and tail weight, which these fits
preserve; absolute trace replay is out of scope by necessity.

All distributions take an explicit ``numpy`` generator so simulations
are reproducible end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


class LogNormalDistribution:
    """Log-normal parameterized by its *median* and shape sigma.

    ``median = exp(mu)`` so parameterizing by median keeps calibration
    against reported medians direct.
    """

    def __init__(self, median: float, sigma: float) -> None:
        if median <= 0:
            raise ValueError("median must be positive")
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        self.median = float(median)
        self.sigma = float(sigma)
        self._mu = math.log(median)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self._mu, self.sigma))

    def mean(self) -> float:
        return math.exp(self._mu + self.sigma**2 / 2.0)


@dataclass(frozen=True)
class TokenLengthProfile:
    """Prompt/output token-count distributions for one workload type.

    ``sample(rng, context_limit)`` draws at least one prompt and one
    output token, and clamps so prompt+output never exceed the model's
    context limit, mirroring deployment truncation.
    """

    name: str
    prompt: LogNormalDistribution
    output: LogNormalDistribution

    def sample(
        self, rng: np.random.Generator, context_limit: Optional[int] = None
    ) -> tuple:
        """Draw ``(prompt_tokens, output_tokens)``."""
        prompt = max(1, int(round(self.prompt.sample(rng))))
        output = max(1, int(round(self.output.sample(rng))))
        if context_limit is not None:
            if context_limit < 2:
                raise ValueError(
                    f"context limit {context_limit} below minimum request size"
                )
            prompt = min(prompt, context_limit - 1)
            output = min(output, context_limit - prompt)
        return prompt, output


#: Splitwise "conversation" trace shape: medium prompts, long outputs.
SPLITWISE_CONVERSATION = TokenLengthProfile(
    name="splitwise-conversation",
    prompt=LogNormalDistribution(median=1020, sigma=1.0),
    output=LogNormalDistribution(median=129, sigma=0.9),
)

#: Splitwise "code" trace shape: long prompts, terse outputs.
SPLITWISE_CODE = TokenLengthProfile(
    name="splitwise-code",
    prompt=LogNormalDistribution(median=1930, sigma=1.1),
    output=LogNormalDistribution(median=13, sigma=0.8),
)
