"""Tests for phase traffic equations and per-context token accounting."""

import pytest

from dataclasses import replace

from repro.workload.model import LLAMA2_70B, LLAMA2_70B_MHA
from repro.workload.phases import (
    PhaseTraffic,
    decode_leap_traffic,
    decode_step_traffic,
    decode_step_traffic_batch,
    full_request_traffic,
    prefill_traffic,
)
from repro.workload.tokens import ContextTokens


class TestPrefillTraffic:
    def test_weights_read_once(self):
        traffic = prefill_traffic(LLAMA2_70B, 1000)
        assert traffic.bytes_read_weights == LLAMA2_70B.weights_bytes

    def test_kv_written_per_prompt_token(self):
        traffic = prefill_traffic(LLAMA2_70B, 1000)
        assert traffic.bytes_written_kv == 1000 * LLAMA2_70B.kv_bytes_per_token

    def test_no_offchip_kv_reads(self):
        assert prefill_traffic(LLAMA2_70B, 1000).bytes_read_kv == 0.0


class TestDecodeTraffic:
    def test_whole_cache_read_per_step(self):
        traffic = decode_step_traffic(LLAMA2_70B, context_tokens=2048)
        assert traffic.bytes_read_kv == LLAMA2_70B.kv_cache_bytes(2048)

    def test_one_vector_appended(self):
        traffic = decode_step_traffic(LLAMA2_70B, 2048)
        assert traffic.bytes_written_kv == LLAMA2_70B.kv_bytes_per_token

    def test_paper_read_write_ratio_claim(self):
        """'imply read:write ratios of over 1000:1' — for the MHA model
        at typical context (the paper's arithmetic)."""
        traffic = decode_step_traffic(LLAMA2_70B_MHA, context_tokens=2048)
        assert traffic.read_write_ratio > 1000

    def test_batching_amortizes_weights(self):
        single = decode_step_traffic(LLAMA2_70B, 2048, batch_size=1)
        batched = decode_step_traffic(LLAMA2_70B, 2048, batch_size=8)
        # Weights read once either way; KV scales with batch.
        assert batched.bytes_read_weights == single.bytes_read_weights
        assert batched.bytes_read_kv == 8 * single.bytes_read_kv

    def test_heterogeneous_batch(self):
        traffic = decode_step_traffic_batch(LLAMA2_70B, [100, 200, 300])
        expected = sum(LLAMA2_70B.kv_cache_bytes(c) for c in (100, 200, 300))
        assert traffic.bytes_read_kv == expected
        assert traffic.bytes_written_kv == 3 * LLAMA2_70B.kv_bytes_per_token

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            decode_step_traffic_batch(LLAMA2_70B, [])


class TestDecodeLeapTraffic:
    def test_each_step_equals_the_scalar_batch(self):
        # 2 * n_params is not an integer, so the float order matters.
        model = replace(LLAMA2_70B, n_params=70e9 + 0.3)
        lengths = [1, 17, 4096, 333, 2]
        leap = decode_leap_traffic(model, lengths, 40)
        assert leap.bytes_read_kv.shape == leap.flops.shape == (40,)
        for step in range(40):
            scalar = decode_step_traffic_batch(model, [n + step for n in lengths])
            assert leap.bytes_read_kv[step] == scalar.bytes_read_kv
            assert leap.flops[step] == scalar.flops
            assert leap.bytes_read_weights == scalar.bytes_read_weights
            assert leap.bytes_written_kv == scalar.bytes_written_kv

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            decode_leap_traffic(LLAMA2_70B, [], 3)
        with pytest.raises(ValueError):
            decode_leap_traffic(LLAMA2_70B, [0, 5], 3)
        with pytest.raises(ValueError):
            decode_leap_traffic(LLAMA2_70B, [5], 0)


class TestFullRequest:
    def test_aggregates_phases(self):
        traffic = full_request_traffic(LLAMA2_70B, 100, 10)
        assert traffic.bytes_written_kv == 110 * LLAMA2_70B.kv_bytes_per_token
        assert traffic.bytes_read_weights >= LLAMA2_70B.weights_bytes * 11

    def test_batch_amortizes_decode_weights(self):
        solo = full_request_traffic(LLAMA2_70B, 100, 10, batch_size=1)
        shared = full_request_traffic(LLAMA2_70B, 100, 10, batch_size=10)
        assert shared.bytes_read_weights < solo.bytes_read_weights

    def test_traffic_addition(self):
        a = PhaseTraffic(1.0, 2.0, 3.0, 4.0)
        b = PhaseTraffic(10.0, 20.0, 30.0, 40.0)
        c = a + b
        assert (c.bytes_read_weights, c.bytes_read_kv) == (11.0, 22.0)
        assert (c.bytes_written_kv, c.flops) == (33.0, 44.0)

    def test_infinite_ratio_for_pure_reads(self):
        t = PhaseTraffic(100.0, 0.0, 0.0, 0.0)
        assert t.read_write_ratio == float("inf")


class TestContextTokens:
    def test_lifecycle(self):
        ctx = ContextTokens(LLAMA2_70B, prompt_tokens=100)
        assert ctx.kv_bytes == 0
        written = ctx.prefill()
        assert written == 100 * LLAMA2_70B.kv_bytes_per_token
        read, appended = ctx.decode_step()
        assert read == LLAMA2_70B.kv_cache_bytes(100)
        assert appended == LLAMA2_70B.kv_bytes_per_token
        assert ctx.context_tokens == 101

    def test_double_prefill_rejected(self):
        ctx = ContextTokens(LLAMA2_70B, 10)
        ctx.prefill()
        with pytest.raises(RuntimeError):
            ctx.prefill()

    def test_decode_before_prefill_rejected(self):
        with pytest.raises(RuntimeError):
            ContextTokens(LLAMA2_70B, 10).decode_step()

    def test_at_limit(self):
        ctx = ContextTokens(LLAMA2_70B, LLAMA2_70B.context_limit_tokens - 1)
        ctx.prefill()
        assert not ctx.at_limit()
        ctx.decode_step()
        assert ctx.at_limit()
