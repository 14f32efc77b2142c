"""Tests for the phase traffic equations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from repro.workload.model import LLAMA2_70B, LLAMA2_70B_MHA
from repro.workload.phases import (
    DecodeLanes,
    PhaseTraffic,
    decode_lanes,
    decode_step_traffic,
    decode_step_traffic_batch,
    prefill_traffic,
)


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
        leap = decode_lanes(model).leap(lengths, 40)
        assert leap.bytes_read_kv.shape == leap.flops.shape == (40,)
        for step in range(40):
            scalar = decode_step_traffic_batch(model, [n + step for n in lengths])
            assert leap.bytes_read_kv[step] == scalar.bytes_read_kv
            assert leap.flops[step] == scalar.flops
            assert leap.bytes_read_weights == scalar.bytes_read_weights
            assert leap.bytes_written_kv == scalar.bytes_written_kv

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            decode_lanes(LLAMA2_70B).leap([], 3)
        with pytest.raises(ValueError):
            decode_lanes(LLAMA2_70B).leap([0, 5], 3)
        with pytest.raises(ValueError):
            decode_lanes(LLAMA2_70B).leap([5], 0)


class TestDecodeLanes:
    """The lane table against :func:`decode_step_traffic_batch`, lane for
    lane, while the table grows."""

    @staticmethod
    def assert_matches_scalar(model, leap, lengths, steps):
        assert leap.bytes_read_kv.shape == leap.flops.shape == (steps,)
        for step in range(steps):
            scalar = decode_step_traffic_batch(model, [n + step for n in lengths])
            assert leap.bytes_read_kv[step] == scalar.bytes_read_kv
            assert leap.flops[step] == scalar.flops
            assert leap.bytes_read_weights == scalar.bytes_read_weights
            assert leap.bytes_written_kv == scalar.bytes_written_kv

    def test_grows_by_doubling_and_matches_each_step(self):
        # 2 * n_params is not an integer, so the float order matters.
        model = replace(LLAMA2_70B, n_params=70e9 + 0.3)
        lanes = DecodeLanes(model)
        for lengths, steps, size in (
            ([3, 1], 5, 8),  # first use: exactly the longest length
            ([30, 7, 2], 40, 70),  # beyond twice the table
            ([69], 2, 140),  # one past the table: doubles
            ([5, 100, 5], 3, 140),  # fits
        ):
            leap = lanes.leap(lengths, steps)
            assert len(lanes._kv) == len(lanes._flops) == size
            self.assert_matches_scalar(model, leap, lengths, steps)

    @settings(max_examples=40, deadline=None)
    @given(
        n_params=st.one_of(
            st.integers(10**8, 10**11),
            # Small models with a full mantissa: lanes of different
            # magnitudes round, so the order in which a step adds its
            # contexts shows in the last bit.
            st.floats(1e3, 1e6),
            st.floats(1e6, 1e11),
        ),
        fraction=st.sampled_from([0.0, 0.3, 0.55]),
        n_layers=st.integers(1, 96),
        leaps=st.lists(
            st.tuples(
                st.lists(st.integers(1, 5000), min_size=1, max_size=6),
                st.integers(1, 60),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_every_lane_equals_the_scalar_batch(self, n_params, fraction, n_layers, leaps):
        model = replace(LLAMA2_70B, n_params=n_params + fraction, n_layers=n_layers)
        lanes = DecodeLanes(model)
        for lengths, steps in leaps:
            self.assert_matches_scalar(model, lanes.leap(lengths, steps), lengths, steps)

    def test_adds_contexts_left_to_right(self):
        # A batch whose FLOP sum rounds differently right to left.
        model = replace(LLAMA2_70B, n_params=76335.282, n_layers=8)
        lengths = [195, 108, 49]
        leap = DecodeLanes(model).leap(lengths, 1)
        backwards = decode_step_traffic_batch(model, lengths[::-1])
        assert leap.flops[0] == decode_step_traffic_batch(model, lengths).flops
        assert leap.flops[0] != backwards.flops

    def test_table_is_read_only(self):
        leap = DecodeLanes(LLAMA2_70B).leap([5], 3)
        with pytest.raises(ValueError):
            leap.bytes_read_kv[0] = 0.0

    def test_shared_per_model(self):
        model = replace(LLAMA2_70B, name="shared-lanes")
        assert decode_lanes(model) is decode_lanes(model)
        assert decode_lanes(model) is not decode_lanes(LLAMA2_70B)


class TestFullRequest:
    def test_infinite_ratio_for_pure_reads(self):
        t = PhaseTraffic(100.0, 0.0, 0.0, 0.0)
        assert t.read_write_ratio == float("inf")
