"""Tests for KV-cache-loss recovery in the serving layer."""

import pytest

from repro.faults import FaultEvent, FaultKind, FaultSchedule, spawn_kv_faults
from repro.inference.accelerator import H100_80G
from repro.inference.cluster import Cluster, tensor_parallel_group
from repro.inference.engine import MAX_RECOVERIES_PER_REQUEST, InferenceEngine
from repro.sim import Simulator
from repro.workload.model import LLAMA2_13B
from repro.workload.requests import InferenceRequest


def outcomes(log):
    """Each applied event's outcome, in timeline order."""
    return [entry["outcome"] for entry in log.entries]


def make_engine(sim, mitigated=True) -> InferenceEngine:
    return InferenceEngine(
        sim,
        tensor_parallel_group(H100_80G, 2),
        LLAMA2_13B,
        max_batch_size=4,
        kv_recovery=mitigated,
    )


def kv_event(time_s, magnitude=0.0, seq=0) -> FaultEvent:
    return FaultEvent(
        time_s=time_s,
        kind=FaultKind.KV_LOSS,
        device="cluster",
        magnitude=magnitude,
        seq=seq,
    )


def run_with_faults(requests, events, mitigated=True):
    sim = Simulator()
    engine = make_engine(sim, mitigated)
    schedule = FaultSchedule(
        events=tuple(events),
        duration_s=max((e.time_s for e in events), default=0.0) + 1.0,
    )
    _process, log = spawn_kv_faults(sim, [engine], schedule)
    for request in requests:
        sim.schedule_at(
            request.arrival_time, lambda _ev, r=request: engine.submit(r)
        )
    sim.run()
    engine.drain()
    sim.run()
    return engine, log


class TestKVLossRecovery:
    def test_recovered_request_completes(self):
        """The victim is recomputed from its prefix and still finishes."""
        requests = [InferenceRequest(0.0, 256, 32)]
        engine, log = run_with_faults(requests, [kv_event(0.05)])
        summary = engine.summarize()
        assert outcomes(log).count("recovered") == 1
        assert summary.requests_completed == 1
        assert summary.requests_failed == 0
        assert summary.kv_recoveries == 1
        assert summary.kv_recompute_tokens > 0

    def test_unmitigated_request_fails(self):
        requests = [InferenceRequest(0.0, 256, 32)]
        engine, log = run_with_faults(
            requests, [kv_event(0.05)], mitigated=False
        )
        summary = engine.summarize()
        assert outcomes(log).count("failed") == 1
        assert summary.requests_completed == 0
        assert summary.requests_failed == 1
        assert len(engine.failed) == 1

    def test_recovery_budget_exhausts(self):
        """Repeated strikes on the same request exhaust the per-request
        budget and the request finally fails."""
        requests = [InferenceRequest(0.0, 256, 64)]
        events = [kv_event(0.05 * (i + 1), seq=i) for i in range(4)]
        engine, log = run_with_faults(requests, events)
        summary = engine.summarize()
        assert outcomes(log).count("recovered") == MAX_RECOVERIES_PER_REQUEST
        assert outcomes(log).count("failed") == 1
        assert summary.requests_failed == 1

    def test_fault_on_idle_engine_is_harmless(self):
        requests = [InferenceRequest(5.0, 64, 8)]
        engine, log = run_with_faults(requests, [kv_event(0.5)])
        assert outcomes(log).count("no-target") == 1
        assert engine.summarize().requests_completed == 1

    def test_kv_pool_consistent_after_loss(self):
        """Released victim pages really free: the pool drains to zero."""
        requests = [InferenceRequest(0.1 * i, 128, 16) for i in range(4)]
        engine, _log = run_with_faults(
            requests, [kv_event(0.3), kv_event(0.6, seq=1)]
        )
        assert engine.kv.used_bytes() == 0

    def test_magnitude_bounds_validated(self):
        sim = Simulator()
        engine = make_engine(sim)
        with pytest.raises(ValueError):
            engine.inject_kv_loss(1.0)
        with pytest.raises(ValueError):
            engine.inject_kv_loss(-0.1)


class TestClusterReport:
    def run_cluster(self, events, mitigated):
        sim = Simulator()
        cluster = Cluster(
            sim,
            tensor_parallel_group(H100_80G, 2),
            LLAMA2_13B,
            num_engines=2,
            max_batch_size=4,
            kv_recovery=mitigated,
        )
        schedule = FaultSchedule(
            events=tuple(events),
            duration_s=max((e.time_s for e in events), default=0.0) + 1.0,
        )
        spawn_kv_faults(sim, cluster.engines, schedule)
        # Everything arrives at once with long decodes, so the batch is
        # guaranteed to be running when the faults strike.
        requests = [InferenceRequest(0.0, 128, 64) for _ in range(8)]
        return cluster.run(requests)

    def test_availability_accounts_failures(self):
        events = [kv_event(0.2), kv_event(0.5, magnitude=0.9, seq=1)]
        report = self.run_cluster(events, mitigated=False)
        assert report.requests_failed > 0
        assert report.availability < 1.0
        assert (
            report.requests_completed + report.requests_failed == 8
        )

    def test_mitigated_availability_full(self):
        events = [kv_event(0.2), kv_event(0.5, magnitude=0.9, seq=1)]
        report = self.run_cluster(events, mitigated=True)
        assert report.requests_failed == 0
        assert report.availability == 1.0
        assert report.kv_recoveries > 0

    def test_goodput_discounts_recompute(self):
        events = [kv_event(0.2)]
        report = self.run_cluster(events, mitigated=True)
        assert report.kv_recompute_tokens > 0
        assert (
            report.goodput_tokens_per_s < report.throughput_tokens_per_s
        )
