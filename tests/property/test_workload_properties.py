"""Property-based tests for workload arithmetic invariants."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.workload.conversations import (
    Session,
    Turn,
    generate_sessions,
    sessions_to_requests,
)
from repro.workload.mitigations import MitigationConfig, mitigated_decode_traffic
from repro.workload.model import LLAMA2_13B, LLAMA2_70B
from repro.workload.phases import decode_step_traffic, prefill_traffic


class TestPhaseProperties:
    @given(
        context=st.integers(min_value=1, max_value=4096),
        batch=st.integers(min_value=1, max_value=64),
    )
    def test_decode_always_read_dominated(self, context, batch):
        traffic = decode_step_traffic(LLAMA2_70B, context, batch)
        assert traffic.bytes_read > traffic.bytes_written
        assert traffic.read_write_ratio > 100

    @given(prompt=st.integers(min_value=1, max_value=4096))
    def test_prefill_writes_scale_linearly(self, prompt):
        traffic = prefill_traffic(LLAMA2_70B, prompt)
        assert traffic.bytes_written_kv == prompt * LLAMA2_70B.kv_bytes_per_token


class TestMitigationProperties:
    @given(
        batch=st.integers(min_value=1, max_value=64),
        compression=st.floats(min_value=1.0, max_value=8.0),
        shared=st.floats(min_value=0.0, max_value=1.0),
        context=st.integers(min_value=16, max_value=4096),
    )
    @settings(max_examples=40, deadline=None)
    def test_mitigations_never_increase_traffic(
        self, batch, compression, shared, context
    ):
        base = mitigated_decode_traffic(
            LLAMA2_70B, MitigationConfig(batch_size=batch), context
        )
        mitigated = mitigated_decode_traffic(
            LLAMA2_70B,
            MitigationConfig(
                batch_size=batch,
                kv_compression_ratio=compression,
                shared_prefix_fraction=shared,
            ),
            context,
        )
        assert mitigated.bytes_read <= base.bytes_read * (1 + 1e-9)
        assert mitigated.bytes_written_kv <= base.bytes_written_kv * (1 + 1e-9)


class TestSessionProperties:
    @given(
        count=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_retain_never_worse_than_recompute(self, count, seed):
        """For any session population: retained-KV requests prefill at
        most as many new tokens as recompute, and carry identical
        context sizes (decode work unchanged)."""
        sessions = generate_sessions(count, seed=seed)
        retain = sessions_to_requests(sessions, LLAMA2_13B, "retain")
        recompute = sessions_to_requests(sessions, LLAMA2_13B, "recompute")
        assert len(retain) == len(recompute)
        for kept, redone in zip(retain, recompute):
            assert kept.prompt_tokens == redone.prompt_tokens
            assert kept.output_tokens == redone.output_tokens
            new_kept = kept.prompt_tokens - kept.cached_prompt_tokens
            new_redone = redone.prompt_tokens - redone.cached_prompt_tokens
            assert new_kept <= new_redone

    @given(
        count=st.integers(min_value=1, max_value=15),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=20, deadline=None)
    def test_requests_always_valid(self, count, seed):
        sessions = generate_sessions(
            count, turns_mean=6.0, prompt_tokens_mean=500,
            output_tokens_mean=300, seed=seed,
        )
        for request in sessions_to_requests(sessions, LLAMA2_13B):
            assert 1 <= request.prompt_tokens
            assert 0 <= request.cached_prompt_tokens < request.prompt_tokens
            assert (
                request.prompt_tokens + request.output_tokens
                <= LLAMA2_13B.context_limit_tokens
            )
