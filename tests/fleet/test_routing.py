"""Fleet routing: policy behavior, shedding, determinism."""

import numpy as np
import pytest

from repro.fleet import (
    ROUTING_POLICIES,
    SHED_NO_CAPACITY,
    SHED_OVERLOAD,
    FleetRouter,
    TenantAllocation,
    TenantConfig,
)
from repro.workload.traces import TraceRecord


def _tenant(name="t", **overrides):
    fields = dict(rate_per_s=2.0, target_rps_per_replica=1.0)
    fields.update(overrides)
    return TenantConfig(name=name, **fields)


def _allocation(name, per_cluster, memory="hbm"):
    return TenantAllocation(
        tenant=name,
        replicas=sum(count for _c, count in per_cluster),
        memory=memory,
        per_cluster=per_cluster,
    )


def _arrivals(name, times):
    return [
        (
            t,
            name,
            index,
            TraceRecord(arrival_time=t, prompt_tokens=100, output_tokens=10),
        )
        for index, t in enumerate(times)
    ]


class TestRouterValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            FleetRouter((_tenant(),), 2, policy="round-robin")

    def test_cluster_floor(self):
        with pytest.raises(ValueError, match="cluster"):
            FleetRouter((_tenant(),), 0)

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="spill"):
            FleetRouter((_tenant(),), 2, spill_outstanding_per_replica=0.0)
        with pytest.raises(ValueError, match="shed"):
            FleetRouter((_tenant(),), 2, shed_outstanding_per_replica=-1.0)

    def test_epoch_length_validation(self):
        router = FleetRouter((_tenant(),), 2)
        with pytest.raises(ValueError, match="epoch"):
            router.route([], [], 0.0)


class TestRoutingOutcomes:
    def test_every_arrival_routed_or_shed(self):
        tenant = _tenant()
        plan = [{"t": _allocation("t", ((0, 1), (1, 1)))}]
        for policy in ROUTING_POLICIES:
            router = FleetRouter(
                (tenant,), 2, policy=policy,
                seed=np.random.SeedSequence(0),
            )
            decisions = router.route(
                _arrivals("t", [0.1 * i for i in range(40)]), plan, 60.0
            )
            assert len(decisions) == 40
            for decision in decisions:
                assert decision.shed == (decision.cluster is None)
                if not decision.shed:
                    assert decision.cluster in (0, 1)

    def test_no_capacity_shed(self):
        plan = [{"t": _allocation("t", ())}]
        router = FleetRouter((_tenant(),), 2)
        decisions = router.route(_arrivals("t", [1.0, 2.0]), plan, 60.0)
        assert all(d.shed for d in decisions)
        assert all(d.shed_reason == SHED_NO_CAPACITY for d in decisions)

    def test_overload_shed_with_threshold(self):
        # One replica draining 1 rps, 30 arrivals in one second, shed
        # threshold at 5 outstanding per replica: the tail must shed.
        plan = [{"t": _allocation("t", ((0, 1),))}]
        router = FleetRouter(
            (_tenant(),), 1, shed_outstanding_per_replica=5.0
        )
        decisions = router.route(
            _arrivals("t", [0.01 * i for i in range(30)]), plan, 60.0
        )
        shed = [d for d in decisions if d.shed]
        assert shed
        assert all(d.shed_reason == SHED_OVERLOAD for d in shed)
        routed = [d for d in decisions if not d.shed]
        assert routed  # the head was admitted

    def test_least_loaded_balances(self):
        plan = [{"t": _allocation("t", ((0, 1), (1, 1), (2, 1), (3, 1)))}]
        router = FleetRouter((_tenant(),), 4, policy="least-loaded")
        decisions = router.route(
            _arrivals("t", [0.05 * i for i in range(80)]), plan, 60.0
        )
        counts = {}
        for decision in decisions:
            counts[decision.cluster] = counts.get(decision.cluster, 0) + 1
        assert set(counts) == {0, 1, 2, 3}
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_tenant_affinity_prefers_home(self):
        tenants = (_tenant("a"), _tenant("b"))
        plan = [
            {
                "a": _allocation("a", ((0, 1), (1, 1))),
                "b": _allocation("b", ((0, 1), (1, 1))),
            }
        ]
        router = FleetRouter(tenants, 2, policy="tenant-affinity")
        # Sparse arrivals: load stays under the spill threshold, so each
        # tenant sticks to its home rotation (rank % candidates).
        merged = sorted(
            _arrivals("a", [10.0 * i for i in range(5)])
            + _arrivals("b", [10.0 * i + 1.0 for i in range(5)]),
            key=lambda item: item[0],
        )
        decisions = router.route(merged, plan, 1000.0)
        for decision in decisions:
            assert decision.cluster == (0 if decision.tenant == "a" else 1)

    def test_tenant_affinity_spills_under_load(self):
        plan = [{"t": _allocation("t", ((0, 1), (1, 1)))}]
        router = FleetRouter(
            (_tenant(),), 2, policy="tenant-affinity",
            spill_outstanding_per_replica=2.0,
        )
        decisions = router.route(
            _arrivals("t", [0.01 * i for i in range(20)]), plan, 60.0
        )
        assert {d.cluster for d in decisions} == {0, 1}

    def test_power_of_two_is_seed_deterministic(self):
        plan = [{"t": _allocation("t", ((0, 2), (1, 2), (2, 2)))}]
        times = [0.05 * i for i in range(60)]

        def run(seed):
            router = FleetRouter(
                (_tenant(),), 3, policy="power-of-two",
                seed=np.random.SeedSequence(seed),
            )
            return [d.cluster for d in router.route(
                _arrivals("t", times), plan, 60.0
            )]

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_epoch_plan_switches_capacity(self):
        plan = [
            {"t": _allocation("t", ((0, 1),))},
            {"t": _allocation("t", ((1, 1),))},
        ]
        router = FleetRouter((_tenant(),), 2)
        decisions = router.route(
            _arrivals("t", [10.0, 70.0]), plan, 60.0
        )
        assert decisions[0].epoch == 0 and decisions[0].cluster == 0
        assert decisions[1].epoch == 1 and decisions[1].cluster == 1

    def test_arrivals_past_last_epoch_use_final_plan(self):
        plan = [{"t": _allocation("t", ((1, 1),))}]
        router = FleetRouter((_tenant(),), 2)
        decisions = router.route(_arrivals("t", [500.0]), plan, 60.0)
        assert decisions[0].epoch == 0
        assert decisions[0].cluster == 1

    def test_plan_cluster_out_of_range_rejected(self):
        plan = [{"t": _allocation("t", ((2, 1),))}]
        router = FleetRouter((_tenant(),), 2)
        with pytest.raises(ValueError, match="cluster 2"):
            router.route(_arrivals("t", [1.0]), plan, 60.0)


class TestRouterState:
    def test_split_calls_match_one_call(self):
        # Tenant "a" loses its cluster-1 replicas in epoch 1, so that
        # group's estimate waits out the gap and drains again in epoch
        # 2.  The estimator and the power-of-two stream live on the
        # router: routing the timeline in two calls, split inside the
        # gap, must decide exactly as one call on a fresh router.
        tenants = (_tenant("a"), _tenant("b", target_rps_per_replica=0.5))
        full = {
            "a": _allocation("a", ((0, 1), (1, 2))),
            "b": _allocation("b", ((0, 1), (1, 1))),
        }
        gap = {
            "a": _allocation("a", ((0, 2), (1, 0))),
            "b": _allocation("b", ((1, 1),)),
        }
        plan = [full, gap, full]
        merged = sorted(
            _arrivals("a", [0.1 * i for i in range(300)])
            + _arrivals("b", [0.25 * i + 0.05 for i in range(120)]),
            key=lambda item: item[0],
        )
        split = next(
            i for i, item in enumerate(merged) if item[0] >= 15.0
        )

        def router(policy):
            return FleetRouter(
                tenants, 2, policy=policy,
                seed=np.random.SeedSequence(4),
                spill_outstanding_per_replica=2.0,
                shed_outstanding_per_replica=6.0,
            )

        for policy in ROUTING_POLICIES:
            whole = router(policy).route(merged, plan, 10.0)
            assert any(d.shed for d in whole), policy
            resumed = router(policy)
            halves = resumed.route(merged[:split], plan, 10.0)
            halves += resumed.route(merged[split:], plan, 10.0)
            assert halves == whole, policy
