"""Tests for distributions and Splitwise token-length profiles."""

import numpy as np
import pytest

from repro.workload.distributions import (
    LogNormalDistribution,
    SPLITWISE_CODE,
    SPLITWISE_CONVERSATION,
    TokenLengthProfile,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestBasicDistributions:
    def test_lognormal_median(self, rng):
        dist = LogNormalDistribution(median=100.0, sigma=1.0)
        samples = [dist.sample(rng) for _ in range(20000)]
        assert np.median(samples) == pytest.approx(100.0, rel=0.05)
        assert dist.mean() > 100.0  # right-skewed

    def test_validation(self):
        with pytest.raises(ValueError):
            LogNormalDistribution(-1.0, 1.0)
        with pytest.raises(ValueError):
            LogNormalDistribution(1.0, -0.5)

    def test_seeded_reproducibility(self):
        dist = LogNormalDistribution(100.0, 1.0)
        a = [dist.sample(np.random.default_rng(5)) for _ in range(10)]
        b = [dist.sample(np.random.default_rng(5)) for _ in range(10)]
        assert a == b


class TestSplitwiseProfiles:
    def test_conversation_medians(self, rng):
        samples = [
            SPLITWISE_CONVERSATION.sample(rng) for _ in range(5000)
        ]
        prompts = sorted(p for p, _o in samples)
        outputs = sorted(o for _p, o in samples)
        assert prompts[len(prompts) // 2] == pytest.approx(1020, rel=0.15)
        assert outputs[len(outputs) // 2] == pytest.approx(129, rel=0.15)

    def test_code_is_prompt_heavy(self, rng):
        samples = [SPLITWISE_CODE.sample(rng) for _ in range(2000)]
        median_prompt = sorted(p for p, _o in samples)[1000]
        median_output = sorted(o for _p, o in samples)[1000]
        assert median_prompt > 10 * median_output

    def test_context_limit_clamps(self, rng):
        for _ in range(500):
            prompt, output = SPLITWISE_CONVERSATION.sample(rng, context_limit=512)
            assert prompt + output <= 512
            assert prompt >= 1 and output >= 1

    def test_impossible_limit_rejected(self, rng):
        with pytest.raises(ValueError):
            SPLITWISE_CONVERSATION.sample(rng, context_limit=1)

    def test_minimums_respected(self, rng):
        profile = TokenLengthProfile(
            name="tiny",
            prompt=LogNormalDistribution(median=0.1, sigma=0.0),
            output=LogNormalDistribution(median=0.1, sigma=0.0),
        )
        prompt, output = profile.sample(rng)
        assert prompt == 1 and output == 1
