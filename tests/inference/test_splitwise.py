"""Tests for the phase-split (Splitwise-style) cluster."""

import pytest

from repro.inference.accelerator import H100_80G
from repro.inference.cluster import Cluster, tensor_parallel_group
from repro.inference.splitwise import SplitwiseCluster
from repro.sim import Simulator
from repro.workload.model import LLAMA2_70B
from repro.workload.traces import generate_trace, replay_trace


def run_split(num_prefill=1, num_decode=1, duration=8.0, seed=17,
              interconnect=100e9):
    sim = Simulator()
    acc = tensor_parallel_group(H100_80G, 4)
    cluster = SplitwiseCluster(
        sim, acc, LLAMA2_70B,
        num_prefill=num_prefill, num_decode=num_decode,
        interconnect_bandwidth=interconnect,
    )
    trace = generate_trace(LLAMA2_70B, duration_s=duration, seed=seed)
    return cluster.run(replay_trace(trace)), len(trace)


class TestSplitwiseCluster:
    def test_serves_everything(self):
        report, submitted = run_split()
        assert report.requests_completed == submitted
        assert report.tokens_generated > 0
        assert report.throughput_tokens_per_s > 0

    def test_kv_transfer_accounted(self):
        report, _n = run_split()
        assert report.kv_transfer_bytes > 0

    def test_pools_both_utilized(self):
        report, _n = run_split(duration=10.0)
        assert report.prefill_utilization > 0
        assert report.decode_utilization > 0
        # Decode dominates machine time for conversation-shaped requests.
        assert report.decode_utilization > report.prefill_utilization

    def test_more_decode_machines_cut_tbt(self):
        one, _ = run_split(num_decode=1, duration=12.0)
        two, _ = run_split(num_decode=2, duration=12.0)
        assert two.tbt_p50_s <= one.tbt_p50_s * 1.05

    def test_slow_interconnect_raises_ttft(self):
        fast, _ = run_split(interconnect=400e9)
        slow, _ = run_split(interconnect=5e9)
        assert slow.ttft_p50_s > fast.ttft_p50_s

    def test_deterministic(self):
        a, _ = run_split(seed=23)
        b, _ = run_split(seed=23)
        assert (a.tokens_generated, a.ttft_p50_s) == (
            b.tokens_generated, b.ttft_p50_s
        )

    def test_validation(self):
        sim = Simulator()
        acc = tensor_parallel_group(H100_80G, 4)
        with pytest.raises(ValueError):
            SplitwiseCluster(sim, acc, LLAMA2_70B, num_prefill=0)
        with pytest.raises(ValueError):
            SplitwiseCluster(sim, acc, LLAMA2_70B, interconnect_bandwidth=0)

    def test_weights_must_fit_decode_machine(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="no KV capacity left"):
            SplitwiseCluster(sim, H100_80G, LLAMA2_70B)  # 130 GiB > 80 GiB


class TestSplitVsMixed:
    def test_prefill_isolation_helps_ttft_under_decode_load(self):
        """Phase splitting's selling point: prompts never queue behind
        long decode batches, so TTFT tails shrink at equal hardware."""
        seed, duration = 31, 15.0

        sim = Simulator()
        acc = tensor_parallel_group(H100_80G, 4)
        mixed = Cluster(sim, acc, LLAMA2_70B, num_engines=2,
                        max_batch_size=16)
        trace = generate_trace(LLAMA2_70B, duration_s=duration, seed=seed)
        mixed_report = mixed.run(replay_trace(trace))

        split_report, _n = run_split(
            num_prefill=1, num_decode=1, duration=duration, seed=seed
        )
        # Same total machines (2); the split cluster matches or beats
        # the mixed cluster's median TTFT.
        assert split_report.ttft_p50_s <= mixed_report.ttft_p50_s * 1.2
