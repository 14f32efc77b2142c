"""Tests for the graceful-degradation serving layer.

Covers :class:`repro.inference.resilience.ResiliencePolicy` validation
and the :class:`ResilientDispatcher` mechanisms one at a time: deadline
timeouts with retry backoff, admission control (shedding), tail-latency
hedging, crash re-dispatch with deferral, and determinism of the whole
report.
"""

import math

import pytest

from repro.inference.accelerator import H100_80G
from repro.inference.cluster import Cluster, tensor_parallel_group
from repro.inference.engine import KVRecoveryConfig
from repro.inference.resilience import ResiliencePolicy
from repro.sim import Simulator
from repro.workload.model import LLAMA2_13B
from repro.workload.requests import InferenceRequest


def make_cluster(sim, policy, num_engines=2, max_batch_size=4):
    return Cluster(
        sim,
        tensor_parallel_group(H100_80G, 2),
        LLAMA2_13B,
        num_engines=num_engines,
        max_batch_size=max_batch_size,
        kv_recovery=KVRecoveryConfig(enabled=True),
        resilience=policy,
    )


def run_cluster(requests, policy, num_engines=2, crashes=(), max_batch_size=4):
    """Run a stream under ``policy``; ``crashes`` is (time_s, engine)."""
    sim = Simulator()
    cluster = make_cluster(
        sim, policy, num_engines=num_engines, max_batch_size=max_batch_size
    )
    for time_s, name in crashes:
        sim.schedule_at(
            time_s,
            lambda _ev, n=name: cluster.handle_engine_crash(n),
            name=f"crash-{name}",
        )
    report = cluster.run(requests)
    return cluster, report


class TestPolicyValidation:
    def test_defaults_valid(self):
        ResiliencePolicy()

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_bad_deadline(self, bad):
        with pytest.raises(ValueError, match="deadline must be > 0"):
            ResiliencePolicy(deadline_s=bad)

    def test_infinite_deadline_allowed(self):
        ResiliencePolicy(deadline_s=float("inf"))

    def test_negative_retries(self):
        with pytest.raises(ValueError, match="retry budget"):
            ResiliencePolicy(max_retries=-1)

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_bad_backoff(self, bad):
        with pytest.raises(ValueError, match="retry backoff"):
            ResiliencePolicy(retry_backoff_s=bad)

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_bad_hedge_delay(self, bad):
        with pytest.raises(ValueError, match="hedge delay"):
            ResiliencePolicy(hedge_delay_s=bad)

    def test_negative_queue_depth(self):
        with pytest.raises(ValueError, match="queue depth bound"):
            ResiliencePolicy(max_queue_depth=-1)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_restart_delay(self, bad):
        with pytest.raises(ValueError, match="restart delay"):
            ResiliencePolicy(restart_delay_s=bad)


class TestHappyPath:
    def test_all_complete_without_faults(self):
        requests = [InferenceRequest(0.1 * i, 128, 16) for i in range(6)]
        _cluster, report = run_cluster(requests, ResiliencePolicy())
        assert report.requests_completed == 6
        assert report.requests_failed == 0
        assert report.requests_shed == 0
        assert report.retries == 0
        assert report.availability == 1.0
        assert report.useful_tokens == 6 * 16

    def test_disabled_policy_has_no_dispatcher(self):
        sim = Simulator()
        cluster = make_cluster(sim, ResiliencePolicy(enabled=False))
        assert cluster.dispatcher is None


class TestDeadlineAndRetry:
    def test_timeout_retries_then_fails(self):
        """A deadline far shorter than the decode time can never be met:
        every attempt times out and the request fails after the
        budget."""
        policy = ResiliencePolicy(
            deadline_s=0.01, max_retries=2, retry_backoff_s=0.05
        )
        requests = [InferenceRequest(0.0, 256, 64)]
        _cluster, report = run_cluster(requests, policy, num_engines=1)
        assert report.deadline_timeouts == 3  # initial + 2 retries
        assert report.retries == 2
        assert report.requests_failed == 1
        assert report.requests_completed == 0
        assert report.availability == 0.0

    def test_zero_retries_fails_on_first_timeout(self):
        policy = ResiliencePolicy(deadline_s=0.01, max_retries=0)
        requests = [InferenceRequest(0.0, 256, 64)]
        _cluster, report = run_cluster(requests, policy, num_engines=1)
        assert report.deadline_timeouts == 1
        assert report.retries == 0
        assert report.requests_failed == 1

    def test_generous_deadline_never_fires(self):
        policy = ResiliencePolicy(deadline_s=60.0, max_retries=2)
        requests = [InferenceRequest(0.0, 128, 16)]
        _cluster, report = run_cluster(requests, policy, num_engines=1)
        assert report.deadline_timeouts == 0
        assert report.requests_completed == 1

    def test_backoff_is_exponential(self):
        """Attempt n waits base * 2**(n-1): with 3 retries the failed
        request settles no earlier than the sum of its backoffs."""
        policy = ResiliencePolicy(
            deadline_s=0.01, max_retries=3, retry_backoff_s=0.1
        )
        sim = Simulator()
        cluster = make_cluster(sim, policy, num_engines=1)
        cluster.run([InferenceRequest(0.0, 256, 64)])
        # 4 deadlines of 0.01 plus backoffs 0.1 + 0.2 + 0.4.
        assert cluster.dispatcher.last_settle_s >= 0.04 + 0.7 - 1e-9


class TestShedding:
    def test_overload_sheds_deterministically(self):
        """With every queue at the bound, arrivals are turned away at
        the door instead of queueing into an unmeetable latency."""
        policy = ResiliencePolicy(max_queue_depth=2, deadline_s=60.0)
        requests = [InferenceRequest(0.0, 256, 64) for _ in range(12)]
        _cluster, report = run_cluster(
            requests, policy, num_engines=1, max_batch_size=1
        )
        assert report.requests_shed > 0
        assert report.requests_completed + report.requests_shed == 12
        assert report.availability < 1.0

    def test_unbounded_depth_never_sheds(self):
        policy = ResiliencePolicy(max_queue_depth=0, deadline_s=60.0)
        requests = [InferenceRequest(0.0, 256, 64) for _ in range(12)]
        _cluster, report = run_cluster(
            requests, policy, num_engines=1, max_batch_size=1
        )
        assert report.requests_shed == 0
        assert report.requests_completed == 12

    def test_shed_count_is_pure(self):
        policy = ResiliencePolicy(max_queue_depth=2, deadline_s=60.0)

        def shed_count():
            requests = [InferenceRequest(0.0, 256, 64) for _ in range(12)]
            _c, report = run_cluster(
                requests, policy, num_engines=1, max_batch_size=1
            )
            return report.requests_shed

        assert shed_count() == shed_count()


class TestHedging:
    def test_hedge_fires_and_winner_counts(self):
        """A hedge delay far below the decode time guarantees the clone
        launches; exactly one arm wins and the loser is cancelled."""
        policy = ResiliencePolicy(
            deadline_s=60.0, hedge_delay_s=0.01, max_retries=0
        )
        requests = [InferenceRequest(0.0, 256, 32)]
        cluster, report = run_cluster(requests, policy, num_engines=2)
        assert report.hedges == 1
        assert report.requests_completed == 1
        assert report.requests_failed == 0
        # One arm completed, the sibling was withdrawn (not failed).
        cancelled = sum(e.requests_cancelled for e in cluster.engines)
        assert cancelled == 1

    def test_hedge_lands_on_other_engine(self):
        policy = ResiliencePolicy(deadline_s=60.0, hedge_delay_s=0.01)
        sim = Simulator()
        cluster = make_cluster(sim, policy, num_engines=2)
        cluster.run([InferenceRequest(0.0, 256, 32)])
        tracker = next(iter(cluster.dispatcher._trackers.values()))
        assert tracker.hedged

    def test_no_hedge_with_single_engine(self):
        """No second engine, no clone: the hedge timer finds no
        candidate and does nothing."""
        policy = ResiliencePolicy(deadline_s=60.0, hedge_delay_s=0.01)
        requests = [InferenceRequest(0.0, 256, 32)]
        _cluster, report = run_cluster(requests, policy, num_engines=1)
        assert report.hedges == 0
        assert report.requests_completed == 1

    def test_zero_delay_disables_hedging(self):
        policy = ResiliencePolicy(deadline_s=60.0, hedge_delay_s=0.0)
        requests = [InferenceRequest(0.0, 256, 32)]
        _cluster, report = run_cluster(requests, policy, num_engines=2)
        assert report.hedges == 0

    def test_completed_request_never_hedges(self):
        """The hedge timer outlives the request: its generation check
        makes it a no-op after settlement."""
        policy = ResiliencePolicy(deadline_s=60.0, hedge_delay_s=30.0)
        requests = [InferenceRequest(0.0, 128, 8)]
        _cluster, report = run_cluster(requests, policy, num_engines=2)
        assert report.hedges == 0
        assert report.requests_completed == 1


class TestCrashRedispatch:
    CRASH_POLICY = ResiliencePolicy(
        deadline_s=60.0, max_retries=2, restart_delay_s=0.5
    )

    def long_requests(self, n=4):
        # Long decodes keep requests resident when the crash lands.
        return [InferenceRequest(0.0, 256, 256) for _ in range(n)]

    def test_displaced_requests_complete_elsewhere(self):
        _cluster, report = run_cluster(
            self.long_requests(),
            self.CRASH_POLICY,
            num_engines=2,
            crashes=[(0.5, "engine-0")],
        )
        assert report.engine_crashes == 1
        assert report.engine_restarts == 1
        assert report.requests_completed == 4
        assert report.requests_failed == 0
        assert report.kv_recoveries > 0
        assert report.time_to_recovery_s > 0.0

    def test_whole_fleet_down_defers(self):
        """Both engines dead: the dispatcher holds arrivals until the
        first restart instead of shedding them."""
        sim = Simulator()
        cluster = make_cluster(sim, self.CRASH_POLICY, num_engines=2)
        for name in ("engine-0", "engine-1"):
            sim.schedule_at(
                0.2,
                lambda _ev, n=name: cluster.handle_engine_crash(n),
            )
        requests = [InferenceRequest(0.3, 128, 16)]
        report = cluster.run(requests)
        assert cluster.dispatcher.deferred >= 1
        assert report.requests_completed == 1

    def test_crash_unknown_engine_raises(self):
        sim = Simulator()
        cluster = make_cluster(sim, self.CRASH_POLICY)
        with pytest.raises(ValueError, match="no engine named"):
            cluster.handle_engine_crash("engine-99")

    def test_crash_down_engine_is_noop(self):
        sim = Simulator()
        cluster = make_cluster(sim, self.CRASH_POLICY)
        assert cluster.handle_engine_crash("engine-0")[0] == "crashed"
        assert cluster.handle_engine_crash("engine-0") == (
            "already-down",
            0,
        )

    def test_engine_cancel_semantics(self):
        sim = Simulator()
        cluster = make_cluster(sim, self.CRASH_POLICY, num_engines=1)
        engine = cluster.engines[0]
        pending = InferenceRequest(0.0, 128, 16)
        engine.submit(pending)
        # Pending: removable before the loop admits it.
        assert engine.cancel(pending.request_id) is True
        # Unknown id: not resident.
        assert engine.cancel(10**9) is False


class TestDeterminism:
    def test_same_inputs_same_report(self):
        policy = ResiliencePolicy(
            deadline_s=5.0,
            max_retries=2,
            retry_backoff_s=0.05,
            hedge_delay_s=0.5,
            max_queue_depth=6,
        )

        def run():
            requests = [
                InferenceRequest(0.1 * i, 256, 64) for i in range(8)
            ]
            _c, report = run_cluster(
                requests,
                policy,
                num_engines=2,
                crashes=[(0.4, "engine-0")],
            )
            return (
                report.requests_completed,
                report.requests_failed,
                report.requests_shed,
                report.retries,
                report.hedges,
                report.hedge_wins,
                report.deadline_timeouts,
                report.engine_crashes,
                report.time_to_recovery_s,
                report.useful_tokens,
                report.tokens_generated,
            )

        first, second = run(), run()
        assert first == second
        assert all(not math.isnan(v) for v in first if isinstance(v, float))
