"""Capacity planning: hysteresis, caps, spread, MRM decisions."""

import numpy as np
import pytest

from repro.fleet import (
    AutoscalerConfig,
    TenantAllocation,
    TenantConfig,
    apply_memory_config,
    epoch_count,
    epoch_demand_rps,
    generate_fleet_traces,
    plan_capacity,
    static_plan,
)
from repro.fleet.autoscaler import _expected_resident_bytes, _memory_config_for
from repro.inference.cluster import tensor_parallel_group
from repro.inference.sweep import resolve_accelerator, resolve_model
from repro.units import GiB


def _tenant(**overrides):
    fields = dict(
        name="t", rate_per_s=2.0, target_rps_per_replica=1.0,
        diurnal_amplitude=0.0, burst_multiplier=1.0, max_replicas=64,
    )
    fields.update(overrides)
    return TenantConfig(**fields)


class TestAutoscalerConfig:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError, match="utilization"):
            AutoscalerConfig(
                scale_up_utilization=0.3, scale_down_utilization=0.5
            )

    def test_negative_hysteresis_rejected(self):
        with pytest.raises(ValueError, match="hysteresis"):
            AutoscalerConfig(hysteresis_epochs=-1)

    def test_capacity_floors(self):
        with pytest.raises(ValueError, match="cluster"):
            AutoscalerConfig(cluster_capacity_replicas=0)
        with pytest.raises(ValueError, match="fleet"):
            AutoscalerConfig(fleet_max_replicas=0)
        with pytest.raises(ValueError, match="headroom"):
            AutoscalerConfig(mrm_headroom_fraction=0.0)


class TestTenantAllocation:
    def test_spread_must_sum(self):
        with pytest.raises(ValueError, match="spread"):
            TenantAllocation(
                tenant="t", replicas=3, memory="hbm",
                per_cluster=((0, 1),),
            )

    def test_negative_replicas_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            TenantAllocation(
                tenant="t", replicas=-1, memory="hbm", per_cluster=(),
            )

    def test_unknown_memory_rejected(self):
        with pytest.raises(ValueError, match="memory"):
            TenantAllocation(
                tenant="t", replicas=0, memory="dram", per_cluster=(),
            )

    def test_replicas_in_lookup(self):
        allocation = TenantAllocation(
            tenant="t", replicas=3, memory="hbm",
            per_cluster=((0, 2), (2, 1)),
        )
        assert allocation.replicas_in(0) == 2
        assert allocation.replicas_in(1) == 0
        assert allocation.replicas_in(2) == 1


class TestEpochHelpers:
    def test_epoch_count_rounds_up(self):
        assert epoch_count(100.0, 30.0) == 4
        assert epoch_count(90.0, 30.0) == 3
        with pytest.raises(ValueError):
            epoch_count(0.0, 30.0)

    def test_demand_series_counts_rates(self):
        tenants = (_tenant(rate_per_s=3.0),)
        traces = generate_fleet_traces(
            tenants, 200.0, np.random.SeedSequence(0)
        )
        series = epoch_demand_rps(traces, tenants, 200.0, 100.0)
        assert len(series) == 2
        total = sum(entry["t"] * 100.0 for entry in series)
        assert total == len(traces["t"])

    def test_partial_final_epoch_uses_actual_span(self):
        tenants = (_tenant(),)
        # One request in the final 50s sliver -> rate 1/50, not 1/100.
        from repro.workload.traces import TraceRecord

        traces = {
            "t": [
                TraceRecord(
                    arrival_time=120.0, prompt_tokens=10, output_tokens=5
                )
            ]
        }
        series = epoch_demand_rps(traces, tenants, 150.0, 100.0)
        assert series[1]["t"] == pytest.approx(1.0 / 50.0)


class TestPlanCapacity:
    def test_never_exceeds_fleet_max(self):
        config = AutoscalerConfig(
            fleet_max_replicas=5, cluster_capacity_replicas=3
        )
        tenants = (
            _tenant(name="a", rate_per_s=10.0),
            _tenant(name="b", rate_per_s=10.0),
        )
        demand = [{"a": 10.0, "b": 10.0}] * 4
        plan = plan_capacity(tenants, demand, 2, config)
        for epoch in plan:
            total = sum(epoch[name].replicas for name in sorted(epoch))
            assert 0 <= total <= 5

    def test_priority_order_on_contention(self):
        config = AutoscalerConfig(
            fleet_max_replicas=4, cluster_capacity_replicas=4
        )
        tenants = (
            _tenant(name="first", rate_per_s=4.0),
            _tenant(name="second", rate_per_s=4.0),
        )
        demand = [{"first": 4.0, "second": 4.0}]
        plan = plan_capacity(tenants, demand, 1, config)
        assert plan[0]["first"].replicas == 4
        assert plan[0]["second"].replicas == 0

    def test_scale_up_is_immediate(self):
        tenants = (_tenant(rate_per_s=1.0),)
        demand = [{"t": 1.0}, {"t": 8.0}, {"t": 8.0}]
        plan = plan_capacity(tenants, demand, 2, AutoscalerConfig())
        # Epoch 2 reacts to epoch 1's demand spike.
        assert plan[1]["t"].replicas == 1
        assert plan[2]["t"].replicas == 8

    def test_scale_down_waits_for_hysteresis(self):
        tenants = (_tenant(rate_per_s=8.0),)
        demand = [{"t": 8.0}, {"t": 1.0}, {"t": 1.0}, {"t": 1.0}]
        plan = plan_capacity(
            tenants, demand, 2, AutoscalerConfig(hysteresis_epochs=1)
        )
        assert plan[0]["t"].replicas == 8  # prior
        assert plan[1]["t"].replicas == 8  # reacting to epoch 0
        assert plan[2]["t"].replicas == 8  # low once: dwell
        assert plan[3]["t"].replicas == 1  # low twice: shrink

    def test_min_replica_floor_holds(self):
        tenants = (_tenant(rate_per_s=0.0, min_replicas=2),)
        demand = [{"t": 0.0}] * 3
        plan = plan_capacity(tenants, demand, 2, AutoscalerConfig())
        for epoch in plan:
            assert epoch["t"].replicas == 2

    def test_zero_traffic_tenant_gets_zero(self):
        tenants = (_tenant(rate_per_s=0.0, min_replicas=0),)
        demand = [{"t": 0.0}] * 2
        plan = plan_capacity(tenants, demand, 2, AutoscalerConfig())
        for epoch in plan:
            assert epoch["t"].replicas == 0
            assert epoch["t"].per_cluster == ()

    def test_cluster_capacity_respected(self):
        config = AutoscalerConfig(
            cluster_capacity_replicas=2, fleet_max_replicas=64
        )
        tenants = (_tenant(rate_per_s=6.0),)
        demand = [{"t": 6.0}]
        plan = plan_capacity(tenants, demand, 3, config)
        used = {}
        for cluster, count in plan[0]["t"].per_cluster:
            used[cluster] = used.get(cluster, 0) + count
        assert all(count <= 2 for count in used.values())
        assert plan[0]["t"].replicas == 6

    def test_needs_at_least_one_cluster(self):
        with pytest.raises(ValueError, match="cluster"):
            plan_capacity((_tenant(),), [{"t": 1.0}], 0, AutoscalerConfig())

    def test_13b_tenant_stays_on_hbm(self):
        tenants = (_tenant(model="llama2-13b", tp=2),)
        plan = plan_capacity(
            tenants, [{"t": 2.0}], 2, AutoscalerConfig()
        )
        assert plan[0]["t"].memory == "hbm"

    def test_70b_tenant_moves_to_mrm(self):
        # 140 GB of weights vs a 2-GPU HBM group (160 GB) crosses the
        # default 0.8 headroom threshold once expected KV is added.
        tenants = (
            _tenant(model="llama2-70b", tp=2, target_rps_per_replica=0.25),
        )
        plan = plan_capacity(
            tenants, [{"t": 2.0}], 2, AutoscalerConfig()
        )
        assert plan[0]["t"].memory == "mrm"


class TestMRMThreshold:
    """A tenant moves to MRM exactly when its expected resident bytes
    pass ``mrm_headroom_fraction`` of the replica's HBM capacity."""

    def _memory_at(self, offset_bytes):
        # 13B weights (24 GiB) plus a 32-deep batch's KV put the default
        # 0.8 x 80 GiB threshold inside the utilization range.
        tenant = _tenant(model="llama2-13b", tp=1, max_batch_size=32)
        model = resolve_model(tenant.model)
        accelerator = tensor_parallel_group(
            resolve_accelerator(tenant.accelerator), tenant.tp
        )
        config = AutoscalerConfig()
        hbm_bytes = accelerator.tier("hbm").capacity_bytes
        target = config.mrm_headroom_fraction * hbm_bytes + offset_bytes
        weights = _expected_resident_bytes(tenant, 0.0, model, accelerator)
        full = _expected_resident_bytes(tenant, 1.0, model, accelerator)
        utilization = (target - weights) / (full - weights)
        assert 0.0 < utilization < 1.0
        assert _expected_resident_bytes(
            tenant, utilization, model, accelerator
        ) == pytest.approx(target)
        return _memory_config_for(tenant, utilization, config, model, accelerator)

    def test_one_gib_under_headroom_plans_hbm(self):
        assert self._memory_at(-GiB) == "hbm"

    def test_one_gib_over_headroom_plans_mrm(self):
        assert self._memory_at(GiB) == "mrm"


class TestStaticPlan:
    def test_static_holds_peak_everywhere(self):
        tenants = (_tenant(rate_per_s=2.0),)
        demand = [{"t": 2.0}, {"t": 9.0}, {"t": 1.0}]
        plan = static_plan(tenants, demand, 2, AutoscalerConfig())
        for epoch in plan:
            assert epoch["t"].replicas == 9

    def test_static_dominates_reactive(self):
        tenants = (_tenant(rate_per_s=2.0), _tenant(name="u", rate_per_s=1.0))
        demand = [
            {"t": 2.0, "u": 1.0},
            {"t": 6.0, "u": 3.0},
            {"t": 1.0, "u": 0.5},
        ]
        config = AutoscalerConfig()
        reactive = plan_capacity(tenants, demand, 2, config)
        static = static_plan(tenants, demand, 2, config)
        for epoch in range(len(demand)):
            for name in ("t", "u"):
                assert (
                    static[epoch][name].replicas
                    >= reactive[epoch][name].replicas
                )


class TestMemoryConfig:
    def test_mrm_tier_shape(self):
        from repro.inference.accelerator import H100_80G

        hbm = H100_80G.tier("hbm")
        accelerator, _placement = apply_memory_config(H100_80G, "mrm")
        spec = accelerator.tier("mrm")
        assert spec.name == "mrm"
        assert spec.capacity_bytes == 4 * hbm.capacity_bytes
        assert spec.read_bandwidth == hbm.read_bandwidth
        assert spec.write_bandwidth == pytest.approx(hbm.read_bandwidth / 8)

    def test_apply_hbm_is_identity(self):
        from repro.inference.accelerator import H100_80G

        accelerator, placement = apply_memory_config(H100_80G, "hbm")
        assert accelerator is H100_80G
        assert placement == {}

    def test_apply_mrm_attaches_tier_and_placement(self):
        from repro.inference.accelerator import H100_80G

        accelerator, placement = apply_memory_config(H100_80G, "mrm")
        assert "mrm" in accelerator.tier_names
        assert placement == {"weights": "mrm"}

    def test_apply_unknown_rejected(self):
        from repro.inference.accelerator import H100_80G

        with pytest.raises(ValueError, match="memory config"):
            apply_memory_config(H100_80G, "optane")
