"""Tests for the batch scheduler, engine and cluster."""

import pytest

from repro.fleet.autoscaler import apply_memory_config
from repro.inference.accelerator import H100_80G
from repro.inference.batching import BatchScheduler
from repro.inference.cluster import Cluster, tensor_parallel_group
from repro.inference.engine import InferenceEngine
from repro.inference.kvcache import KVCacheManager
from repro.sim import Simulator
from repro.units import GiB, MiB
from repro.workload.model import LLAMA2_13B, LLAMA2_70B
from repro.workload.requests import InferenceRequest, SLAClass
from repro.workload.traces import generate_trace, replay_trace


def make_scheduler(capacity_mb=512, max_batch=4) -> BatchScheduler:
    kv = KVCacheManager(LLAMA2_13B, capacity_mb * MiB, tokens_per_page=16)
    return BatchScheduler(kv, max_batch_size=max_batch)


class TestBatchScheduler:
    def test_sla_priority_order(self):
        scheduler = make_scheduler()
        best_effort = InferenceRequest(0.0, 10, 5, sla=SLAClass.BEST_EFFORT)
        interactive = InferenceRequest(1.0, 10, 5, sla=SLAClass.INTERACTIVE)
        scheduler.enqueue(best_effort)
        scheduler.enqueue(interactive)
        first = scheduler.try_admit()
        assert first is interactive

    def test_fifo_within_class(self):
        scheduler = make_scheduler()
        a = InferenceRequest(0.0, 10, 5)
        b = InferenceRequest(1.0, 10, 5)
        scheduler.enqueue(b)
        scheduler.enqueue(a)
        assert scheduler.try_admit() is a

    def test_batch_size_limit(self):
        scheduler = make_scheduler(max_batch=2)
        for i in range(3):
            request = InferenceRequest(float(i), 10, 5)
            scheduler.enqueue(request)
        scheduler.start(scheduler.try_admit())
        scheduler.start(scheduler.try_admit())
        assert scheduler.try_admit() is None

    def test_memory_admission_control(self):
        scheduler = make_scheduler(capacity_mb=16)  # tiny pool
        huge = InferenceRequest(0.0, 4000, 5)
        scheduler.enqueue(huge)
        assert scheduler.try_admit() is None
        assert scheduler.rejected_for_memory == 1

    def test_big_request_does_not_block_lower_priority_only(self):
        """A stuck interactive request must not let later *interactive*
        requests starve it, but best-effort may pass."""
        scheduler = make_scheduler(capacity_mb=256)
        big = InferenceRequest(0.0, 3000, 5, sla=SLAClass.INTERACTIVE)
        small_same = InferenceRequest(1.0, 10, 5, sla=SLAClass.INTERACTIVE)
        small_lower = InferenceRequest(2.0, 10, 5, sla=SLAClass.BEST_EFFORT)
        for request in (big, small_same, small_lower):
            scheduler.enqueue(request)
        admitted = scheduler.try_admit()
        assert admitted is small_lower

    def test_finish_frees_slot(self):
        scheduler = make_scheduler(max_batch=1)
        request = InferenceRequest(0.0, 10, 5)
        scheduler.enqueue(request)
        context = scheduler.start(scheduler.try_admit())
        assert scheduler.batch_size == 1
        scheduler.finish(context.context_id)
        assert scheduler.batch_size == 0


class TestEngine:
    def run_engine(self, requests, **kwargs):
        sim = Simulator()
        acc = tensor_parallel_group(H100_80G, 2)
        engine = InferenceEngine(
            sim, acc, LLAMA2_13B, max_batch_size=4, **kwargs
        )
        for request in requests:
            sim.schedule_at(
                request.arrival_time,
                lambda _ev, r=request: engine.submit(r),
            )
        sim.run()
        engine.drain()
        sim.run()
        return engine

    def test_serves_all_requests(self):
        requests = [InferenceRequest(float(i) * 0.1, 50, 10) for i in range(6)]
        engine = self.run_engine(requests)
        summary = engine.summarize()
        assert summary.requests_completed == 6
        assert summary.tokens_generated == 60

    def test_ttft_after_arrival(self):
        requests = [InferenceRequest(1.0, 50, 5)]
        engine = self.run_engine(requests)
        assert engine.summarize().ttft_p50_s > 0

    def test_decode_memory_bound(self):
        requests = [InferenceRequest(0.0, 512, 50)]
        engine = self.run_engine(requests)
        summary = engine.summarize()
        assert summary.memory_bound_fraction > 0.8

    def test_kv_pool_released_after_completion(self):
        requests = [InferenceRequest(0.0, 50, 5)]
        engine = self.run_engine(requests)
        assert engine.kv.used_bytes() == 0

    def test_impossible_request_fails_loud(self):
        sim = Simulator()
        acc = tensor_parallel_group(H100_80G, 2)
        engine = InferenceEngine(
            sim, acc, LLAMA2_13B, kv_capacity_bytes=64 * MiB, max_batch_size=4
        )
        engine.submit(InferenceRequest(0.0, 4000, 5))
        engine.drain()
        with pytest.raises(RuntimeError, match="cannot ever be admitted"):
            sim.run()

    def test_bad_placement_rejected(self):
        sim = Simulator()
        with pytest.raises(KeyError):
            InferenceEngine(
                sim, H100_80G, LLAMA2_13B, placement={"weights": "mrm"}
            )

    def test_misspelt_placement_structure_rejected(self):
        # The accelerator has an "mrm" tier, so only the structure name
        # is wrong; it must not be kept and silently ignored.
        acc, _placement = apply_memory_config(
            tensor_parallel_group(H100_80G, 2), "mrm"
        )
        with pytest.raises(ValueError, match="weights, kv, activations"):
            InferenceEngine(
                Simulator(), acc, LLAMA2_13B, placement={"weigths": "mrm"}
            )

    def test_no_kv_room_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="no KV capacity"):
            InferenceEngine(sim, H100_80G, LLAMA2_70B, max_batch_size=4,
                            kv_capacity_bytes=None)
            # 70B weights (130 GiB) exceed one H100's 80 GiB


class TestCluster:
    def test_trace_run_completes(self):
        sim = Simulator()
        acc = tensor_parallel_group(H100_80G, 4)
        cluster = Cluster(sim, acc, LLAMA2_70B, num_engines=2, max_batch_size=8)
        trace = generate_trace(LLAMA2_70B, duration_s=10.0, seed=7)
        report = cluster.run(replay_trace(trace))
        assert report.requests_completed == len(trace)
        assert report.tokens_generated > 0
        assert report.throughput_tokens_per_s > 0
        assert 0.0 <= report.memory_bound_fraction <= 1.0
        assert report.tokens_per_joule > 0

    def test_dispatch_balances_engines(self):
        sim = Simulator()
        acc = tensor_parallel_group(H100_80G, 4)
        cluster = Cluster(sim, acc, LLAMA2_70B, num_engines=2, max_batch_size=4)
        trace = generate_trace(LLAMA2_70B, duration_s=20.0, seed=3)
        cluster.run(replay_trace(trace))
        per_engine = [len(e.completed) for e in cluster.engines]
        assert all(count > 0 for count in per_engine)

    def test_tensor_parallel_group_scales(self):
        group = tensor_parallel_group(H100_80G, 8)
        assert group.peak_flops == 8 * H100_80G.peak_flops
        assert group.tier("hbm").capacity_bytes == 8 * 80 * GiB
        with pytest.raises(ValueError):
            tensor_parallel_group(H100_80G, 0)

    def test_deterministic_reports(self):
        def run():
            sim = Simulator()
            acc = tensor_parallel_group(H100_80G, 4)
            cluster = Cluster(sim, acc, LLAMA2_70B, num_engines=2)
            trace = generate_trace(LLAMA2_70B, duration_s=10.0, seed=11)
            report = cluster.run(replay_trace(trace))
            return (report.tokens_generated, report.ttft_p50_s, report.duration_s)

        assert run() == run()


class TestSplitPlacementAccounting:
    """Weights on an MRM tier, KV on HBM: every step's bytes land on
    their structure's tier, exactly."""

    def test_tier_bytes_and_energy_follow_placement(self):
        acc, placement = apply_memory_config(
            tensor_parallel_group(H100_80G, 2), "mrm"
        )
        cluster = Cluster(
            Simulator(), acc, LLAMA2_13B, num_engines=2,
            placement=placement, max_batch_size=4,
        )
        requests = [
            InferenceRequest(0.2 * (i // 2), 96 + 40 * i, 8 + 3 * i)
            for i in range(10)
        ]
        cluster.run(requests)
        for engine in cluster.engines:
            summary = engine.summarize()
            assert summary.requests_completed == len(engine.completed) > 0
            steps = summary.memory_bound_steps + summary.compute_bound_steps
            assert summary.tier_bytes_read["mrm"] == (
                LLAMA2_13B.weights_bytes * steps
            )
            assert summary.tier_bytes_written["mrm"] == 0.0
            tokens = sum(
                c.request.prompt_tokens + c.request.output_tokens
                for c in engine.completed
            )
            assert summary.tier_bytes_written["hbm"] == (
                LLAMA2_13B.kv_bytes_per_token * tokens
            )
            energy = sum(
                tier.read_energy_j(summary.tier_bytes_read[tier.name])
                + tier.write_energy_j(summary.tier_bytes_written[tier.name])
                for tier in acc.tiers
            )
            assert summary.access_energy_j == pytest.approx(energy, rel=1e-12)
