"""Tests for speculative decoding and read-mitigation traffic models."""

import pytest

from repro.workload.mitigations import (
    MitigationConfig,
    mitigated_decode_traffic,
    read_bytes_per_token,
)
from repro.workload.model import LLAMA2_70B, PHI_3_MINI
from repro.workload.phases import decode_step_traffic
from repro.workload.speculative import (
    SpeculationConfig,
    speculative_decode_step_traffic,
)


def spec(k=4, alpha=0.7) -> SpeculationConfig:
    return SpeculationConfig(
        draft_model=PHI_3_MINI, draft_tokens=k, acceptance_rate=alpha
    )


class TestSpeculationArithmetic:
    def test_expected_tokens_formula(self):
        s = spec(k=4, alpha=0.7)
        expected = (1 - 0.7**5) / (1 - 0.7)
        assert s.expected_tokens_per_step() == pytest.approx(expected)

    def test_zero_acceptance_still_emits_one(self):
        assert spec(alpha=0.0).expected_tokens_per_step() == 1.0

    def test_more_drafting_more_tokens(self):
        assert (
            spec(k=8).expected_tokens_per_step()
            > spec(k=2).expected_tokens_per_step()
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SpeculationConfig(PHI_3_MINI, draft_tokens=0)
        with pytest.raises(ValueError):
            SpeculationConfig(PHI_3_MINI, acceptance_rate=1.0)


class TestSpeculativeTraffic:
    def test_weight_reads_per_token_improve(self):
        s = spec()
        traffic = speculative_decode_step_traffic(LLAMA2_70B, s, 2048)
        speculated = traffic.bytes_read_weights / s.expected_tokens_per_step()
        assert speculated < LLAMA2_70B.weights_bytes

    def test_writes_per_token_unchanged(self):
        """Speculation emits more tokens per step but still writes one
        vector per token — the write stream MRM sees is identical."""
        s = spec()
        traffic = speculative_decode_step_traffic(LLAMA2_70B, s, 2048)
        per_token = traffic.bytes_written_kv / s.expected_tokens_per_step()
        assert per_token == pytest.approx(LLAMA2_70B.kv_bytes_per_token)

    def test_draft_reads_included(self):
        traffic = speculative_decode_step_traffic(LLAMA2_70B, spec(), 2048)
        assert traffic.bytes_read_weights > LLAMA2_70B.weights_bytes

    def test_still_read_dominated(self):
        traffic = speculative_decode_step_traffic(LLAMA2_70B, spec(), 2048)
        assert traffic.read_write_ratio > 1000


class TestMitigations:
    def test_validation(self):
        with pytest.raises(ValueError):
            MitigationConfig(batch_size=0)
        with pytest.raises(ValueError):
            MitigationConfig(kv_compression_ratio=0.5)
        with pytest.raises(ValueError):
            MitigationConfig(shared_prefix_fraction=1.5)

    def test_no_mitigations_is_baseline(self):
        base = decode_step_traffic(LLAMA2_70B, 2048, 1)
        same = mitigated_decode_traffic(LLAMA2_70B, MitigationConfig(), 2048)
        assert same.bytes_read == base.bytes_read
        assert same.bytes_written_kv == base.bytes_written_kv

    def test_compression_shrinks_kv_both_ways(self):
        compressed = mitigated_decode_traffic(
            LLAMA2_70B, MitigationConfig(kv_compression_ratio=4.0), 2048
        )
        base = decode_step_traffic(LLAMA2_70B, 2048, 1)
        assert compressed.bytes_read_kv == pytest.approx(base.bytes_read_kv / 4)
        assert compressed.bytes_written_kv == pytest.approx(
            base.bytes_written_kv / 4
        )

    def test_prefix_sharing_needs_a_batch(self):
        solo = mitigated_decode_traffic(
            LLAMA2_70B,
            MitigationConfig(batch_size=1, shared_prefix_fraction=0.5),
            2048,
        )
        base = decode_step_traffic(LLAMA2_70B, 2048, 1)
        assert solo.bytes_read_kv == base.bytes_read_kv

    def test_prefix_sharing_cuts_batch_kv_reads(self):
        shared = mitigated_decode_traffic(
            LLAMA2_70B,
            MitigationConfig(batch_size=8, shared_prefix_fraction=0.5),
            2048,
        )
        unshared = mitigated_decode_traffic(
            LLAMA2_70B, MitigationConfig(batch_size=8), 2048
        )
        assert shared.bytes_read_kv < unshared.bytes_read_kv

    def test_reads_per_token_fall_with_each_mitigation(self):
        base = read_bytes_per_token(LLAMA2_70B, MitigationConfig(), 2048)
        batched = read_bytes_per_token(
            LLAMA2_70B, MitigationConfig(batch_size=16), 2048
        )
        everything = read_bytes_per_token(
            LLAMA2_70B,
            MitigationConfig(
                batch_size=16,
                kv_compression_ratio=4.0,
                shared_prefix_fraction=0.5,
                speculation=spec(),
            ),
            2048,
        )
        assert everything < batched < base

    def test_paper_claim_still_read_dominated(self):
        """'even together they do not fundamentally change the heavily
        read-dominated nature of the workload'."""
        everything = mitigated_decode_traffic(
            LLAMA2_70B,
            MitigationConfig(
                batch_size=16,
                kv_compression_ratio=4.0,
                shared_prefix_fraction=0.5,
                speculation=spec(),
            ),
            2048,
        )
        assert everything.read_write_ratio > 1000
