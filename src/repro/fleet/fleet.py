"""The fleet: N clusters, many tenants, one deterministic serving layer.

ROADMAP item 1 asks for the paper's actual operating regime — "many
inference requests ... multiplexed over the same cluster" (Section 2) at
datacenter scale — rather than one cluster serving one workload.  This
module is the composition root:

1. **arrivals** — per-tenant diurnal+bursty traces from spawned seed
   streams (:mod:`repro.fleet.arrivals`);
2. **autoscaling** — a reactive epoch plan (replicas + MRM-vs-HBM per
   tenant) from observed demand (:mod:`repro.fleet.autoscaler`);
3. **routing** — every arrival placed on a cluster (or shed) by a
   pluggable fleet policy (:mod:`repro.fleet.routing`);
4. **evaluation** — the routed work decomposes into independent
   ``(tenant, cluster, epoch)`` *cells*, each evaluated exactly like a
   ``python -m repro serve`` scenario (DES, analytic, or auto) by
   :func:`repro.inference.sweep.evaluate`, called from
   :func:`fleet_cell_point` — a pure top-level point function that
   :func:`repro.parallel.run_sweep` fans out across workers;
5. **aggregation** — cell rows fold into per-tenant / per-cluster /
   fleet tables and one labeled obs snapshot.

Determinism contract: stages 1-3 are seed-pure pre-passes, stage 4 is a
pure point function over a deterministic cell list, and stage 5 reduces
rows in grid order with sorted-key folds — so a fleet run is bit-
identical for any worker count (the ``tests/obs`` identity tests pin
this, serial vs ``REPRO_WORKERS=4``).

Why cells may be evaluated independently: replicas are *dedicated* —
the autoscaler assigns each tenant its own replica slots on each
cluster, so tenants share the fleet's capacity pool but never a batch
queue, and epochs hold capacity fixed between plan changes.  Each cell
is therefore a self-contained serving scenario: this tenant's routed
requests for this epoch, on its replicas in this cluster, JSQ-dispatched
among them by :class:`repro.inference.cluster.Cluster`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.arrivals import generate_fleet_traces, merge_arrivals
from repro.fleet.autoscaler import (
    AutoscalerConfig,
    apply_memory_config,
    mrm_tier_spec,
    epoch_count,
    epoch_demand_rps,
    plan_capacity,
    static_plan,
)
from repro.fleet.routing import ROUTING_POLICIES, FleetRouter
from repro.fleet.tenant import TenantConfig, DEFAULT_TENANTS, validate_tenants
from repro.units import DAY
from repro.workload.traces import TraceRecord

#: Capacity-planning policies a fleet may select.
SCALING_POLICIES = ("reactive", "static")

#: Obs schema tag for fleet snapshots.
FLEET_OBS_SCHEMA = "repro.fleet/1"


@dataclass(frozen=True)
class FleetConfig:
    """One fleet scenario (picklable, hashable, validation on build)."""

    tenants: Tuple[TenantConfig, ...] = DEFAULT_TENANTS
    num_clusters: int = 4
    horizon_s: float = 600.0
    epoch_s: float = 120.0
    routing: str = "least-loaded"
    scaling: str = "reactive"
    mode: str = "auto"  # cell evaluator: des | analytic | auto
    autoscaler: AutoscalerConfig = AutoscalerConfig()
    spill_outstanding_per_replica: float = 4.0
    shed_outstanding_per_replica: float = 0.0
    #: Uniform traffic multiplier — the E13 scale knob (tenant *shapes*
    #: stay fixed while the fleet's user population grows).
    rate_scale: float = 1.0

    def __post_init__(self) -> None:
        from repro.inference.sweep import validate_mode

        validate_tenants(self.tenants)
        if self.num_clusters < 1:
            raise ValueError("need at least one cluster")
        if self.horizon_s <= 0:
            raise ValueError("horizon must be positive")
        if not 0 < self.epoch_s <= self.horizon_s:
            raise ValueError("epoch must be in (0, horizon]")
        if self.routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {self.routing!r}; known: "
                f"{', '.join(ROUTING_POLICIES)}"
            )
        if self.scaling not in SCALING_POLICIES:
            raise ValueError(
                f"unknown scaling policy {self.scaling!r}; known: "
                f"{', '.join(SCALING_POLICIES)}"
            )
        validate_mode(self.mode)
        if self.rate_scale <= 0:
            raise ValueError("rate scale must be positive")

    def scaled_tenants(self) -> Tuple[TenantConfig, ...]:
        """Tenants with the fleet's traffic multiplier applied."""
        if self.rate_scale == 1.0:  # repro-lint: disable=RL006 -- exact default, not a computed float
            return self.tenants
        return tuple(
            replace(tenant, rate_per_s=tenant.rate_per_s * self.rate_scale)
            for tenant in self.tenants
        )

    def epochs(self) -> int:
        return epoch_count(self.horizon_s, self.epoch_s)


def fleet_cell_point(
    point: Mapping[str, Any], seed: np.random.SeedSequence
) -> dict:
    """Evaluate one ``(tenant, cluster, epoch)`` cell; pure in ``point``.

    The point carries everything the cell needs as plain values (model
    and accelerator catalog keys, memory config, replica count, the
    routed records with epoch-relative arrival times), so the function
    is picklable and fans out across sweep workers.  The sweep seed is
    unused — cells replay fixed traces — but kept for the
    :func:`repro.parallel.run_sweep` point-function contract.
    """
    from repro.inference.cluster import tensor_parallel_group
    from repro.inference.sweep import (
        evaluate,
        report_to_dict,
        resolve_accelerator,
        resolve_model,
    )

    del seed  # cells are trace replays; nothing stochastic remains
    model = resolve_model(point["model"])
    accelerator = tensor_parallel_group(
        resolve_accelerator(point["accelerator"]), int(point["tp"])
    )
    accelerator, placement = apply_memory_config(
        accelerator, point["memory"]
    )
    replicas = int(point["replicas"])
    if replicas < 1:
        raise ValueError("a cell needs at least one replica")
    records = [
        TraceRecord(
            arrival_time=arrival,
            prompt_tokens=int(prompt),
            output_tokens=int(output),
            sla=sla,
        )
        for arrival, prompt, output, sla in point["records"]
    ]

    report, evaluated, declined = evaluate(
        accelerator,
        model,
        (record.to_request() for record in records),
        engines=replicas,
        batch=int(point["batch"]),
        mode=point["mode"],
        placement=placement or None,
    )

    sla_admitted: Dict[str, int] = {}
    for record in records:
        sla_admitted[record.sla] = sla_admitted.get(record.sla, 0) + 1
    result = report_to_dict(report)
    result["mode"] = evaluated
    result["analytic_fallback"] = declined is not None
    result["tenant"] = point["tenant"]
    result["cluster"] = int(point["cluster"])
    result["epoch"] = int(point["epoch"])
    result["memory"] = point["memory"]
    result["replicas"] = replicas
    result["admitted"] = len(records)
    result["sla_admitted"] = dict(sorted(sla_admitted.items()))
    return result


def build_cells(
    config: FleetConfig,
    root_seed=0,
) -> Tuple[List[dict], Dict[str, Any]]:
    """Stages 1-3: traces, capacity plan, routing → the cell point list.

    Returns ``(points, context)`` where ``context`` carries the
    pre-pass artifacts aggregation needs (traces, plan, decisions,
    scaled tenants).  Pure in ``(config, root_seed)``.
    """
    tenants = config.scaled_tenants()
    root = (
        root_seed
        if isinstance(root_seed, np.random.SeedSequence)
        else np.random.SeedSequence(int(root_seed))
    )
    trace_seed, router_seed = root.spawn(2)
    traces = generate_fleet_traces(tenants, config.horizon_s, trace_seed)
    demand = epoch_demand_rps(
        traces, tenants, config.horizon_s, config.epoch_s
    )
    planner = plan_capacity if config.scaling == "reactive" else static_plan
    plan = planner(tenants, demand, config.num_clusters, config.autoscaler)
    merged = merge_arrivals(traces, [tenant.name for tenant in tenants])
    router = FleetRouter(
        tenants,
        config.num_clusters,
        policy=config.routing,
        seed=router_seed,
        spill_outstanding_per_replica=config.spill_outstanding_per_replica,
        shed_outstanding_per_replica=config.shed_outstanding_per_replica,
    )
    decisions = router.route(merged, plan, config.epoch_s)

    # Group routed arrivals into (tenant, cluster, epoch) cells with
    # epoch-relative arrival times.  Cell order is the deterministic
    # grid order: tenant declaration rank, then cluster, then epoch.
    by_tenant = {tenant.name: tenant for tenant in tenants}
    cells: Dict[Tuple[str, int, int], List[Tuple[float, int, int, str]]] = {}
    for (arrival, name, _index, record), decision in zip(merged, decisions):
        if decision.shed:
            continue
        key = (name, decision.cluster, decision.epoch)
        cells.setdefault(key, []).append(
            (
                arrival - decision.epoch * config.epoch_s,
                record.prompt_tokens,
                record.output_tokens,
                record.sla,
            )
        )
    rank = {tenant.name: index for index, tenant in enumerate(tenants)}
    points: List[dict] = []
    for key in sorted(cells, key=lambda k: (rank[k[0]], k[1], k[2])):
        name, cluster, epoch = key
        tenant = by_tenant[name]
        allocation = plan[epoch][name]
        points.append(
            {
                "tenant": name,
                "cluster": cluster,
                "epoch": epoch,
                "model": tenant.model,
                "accelerator": tenant.accelerator,
                "tp": tenant.tp,
                "batch": tenant.max_batch_size,
                "memory": allocation.memory,
                "replicas": allocation.replicas_in(cluster),
                "mode": config.mode,
                "records": tuple(cells[key]),
            }
        )
    context = {
        "tenants": tenants,
        "traces": traces,
        "demand": demand,
        "plan": plan,
        "decisions": decisions,
    }
    return points, context


def _weighted_sla_attainment(
    rows: Sequence[dict],
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Fold cell SLA attainment into class fractions weighted by each
    cell's admitted class counts (exact while every routed request
    completes, which holds in the fault-free fleet).  Classes with zero
    requests report vacuous ``1.0``."""
    weighted: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for row in rows:
        for sla, count in sorted(row["sla_admitted"].items()):
            fraction = row["sla_attainment"].get(sla, 1.0)
            weighted[sla] = weighted.get(sla, 0.0) + fraction * count
            counts[sla] = counts.get(sla, 0) + count
    attainment = {}
    for sla in sorted(counts):
        attainment[sla] = (
            weighted[sla] / counts[sla] if counts[sla] > 0 else 1.0
        )
    return attainment, counts


def _resolve_tenant_model(tenant: TenantConfig):
    from repro.inference.sweep import resolve_model

    return resolve_model(tenant.model)


def _tenant_mrm_constants(tenant: TenantConfig) -> Tuple[float, float]:
    """(capacity bytes, endurance cycles) of one replica's MRM tier."""
    from repro.inference.cluster import tensor_parallel_group
    from repro.inference.sweep import resolve_accelerator

    accelerator = tensor_parallel_group(
        resolve_accelerator(tenant.accelerator), tenant.tp
    )
    spec = mrm_tier_spec(accelerator.tier("hbm"))
    return float(spec.capacity_bytes), float(spec.profile.endurance_cycles)


def aggregate_fleet(
    config: FleetConfig,
    rows: Sequence[dict],
    context: Mapping[str, Any],
) -> Dict[str, Any]:
    """Stage 5: fold cell rows + pre-pass context into the fleet result.

    Deterministic: iterates rows in grid order and dict folds in sorted
    key order, so the result (and its obs snapshot) is bit-identical
    across worker counts.
    """
    from repro.obs import MetricsRegistry

    tenants: Sequence[TenantConfig] = context["tenants"]
    traces = context["traces"]
    plan = context["plan"]
    decisions = context["decisions"]
    epochs = config.epochs()

    by_tenant_rows: Dict[str, List[dict]] = {t.name: [] for t in tenants}
    for row in rows:
        by_tenant_rows[row["tenant"]].append(row)

    shed_counts: Dict[str, Dict[str, int]] = {
        tenant.name: {} for tenant in tenants
    }
    routed_counts: Dict[str, int] = {tenant.name: 0 for tenant in tenants}
    for decision in decisions:
        if decision.shed:
            per = shed_counts[decision.tenant]
            per[decision.shed_reason] = per.get(decision.shed_reason, 0) + 1
        else:
            routed_counts[decision.tenant] += 1

    obs = MetricsRegistry()
    obs.info("fleet_schema").set(FLEET_OBS_SCHEMA)
    obs.info("fleet_routing").set(config.routing)
    obs.info("fleet_scaling").set(config.scaling)
    obs.info("fleet_mode").set(config.mode)

    tenant_tables: Dict[str, Dict[str, Any]] = {}
    cluster_tables: Dict[str, Dict[str, Any]] = {
        str(cluster): {
            "requests_completed": 0,
            "tokens_generated": 0,
            "access_energy_j": 0.0,
            "board_energy_j": 0.0,
            "replica_epochs": 0,
        }
        for cluster in range(config.num_clusters)
    }
    for epoch in range(epochs):
        for tenant in tenants:
            allocation = plan[epoch][tenant.name]
            for cluster, count in allocation.per_cluster:
                cluster_tables[str(cluster)]["replica_epochs"] += count

    for tenant in tenants:
        t_rows = by_tenant_rows[tenant.name]
        admitted = len(traces.get(tenant.name, []))
        routed = routed_counts[tenant.name]
        shed = shed_counts[tenant.name]
        shed_total = sum(shed[reason] for reason in sorted(shed))
        completed = sum(r["requests_completed"] for r in t_rows)
        failed = sum(r["requests_failed"] for r in t_rows)
        tokens = sum(r["tokens_generated"] for r in t_rows)
        access_j = math.fsum(r["access_energy_j"] for r in t_rows)
        board_j = math.fsum(r["board_energy_j"] for r in t_rows)
        attainment, sla_counts = _weighted_sla_attainment(t_rows)
        ttft_worst = 0.0
        for row in t_rows:
            value = row["ttft_p99_s"]
            if not math.isnan(value):
                ttft_worst = max(ttft_worst, value)

        replica_epochs = 0
        replica_peak = 0
        mrm_replica_epochs = 0
        for epoch in range(epochs):
            allocation = plan[epoch][tenant.name]
            replica_epochs += allocation.replicas
            replica_peak = max(replica_peak, allocation.replicas)
            if allocation.memory == "mrm":
                mrm_replica_epochs += allocation.replicas

        # Serving-path writes to the MRM tier (zero while only weights
        # are placed there) plus weight-load writes implied by the plan:
        # every replica that newly enters the MRM configuration writes
        # the model's weights once — the deployment-swap wear that
        # :mod:`repro.inference.deployment` prices per device.
        serving_bytes = math.fsum(
            r["tier_bytes_written"].get("mrm", 0.0) for r in t_rows
        )
        weights_bytes = float(
            _resolve_tenant_model(tenant).weights_bytes
        )
        weight_loads = 0
        previous_mrm = 0
        for epoch in range(epochs):
            allocation = plan[epoch][tenant.name]
            current_mrm = (
                allocation.replicas if allocation.memory == "mrm" else 0
            )
            weight_loads += max(0, current_mrm - previous_mrm)
            previous_mrm = current_mrm
        weight_load_bytes = weight_loads * weights_bytes
        mrm_bytes_written = serving_bytes + weight_load_bytes
        capacity, endurance = _tenant_mrm_constants(tenant)
        if mrm_replica_epochs > 0:
            # Time-weighted provisioned MRM bytes; burn is the fraction
            # of the provisioned pool's total write endurance consumed,
            # scaled to a per-simulated-day rate.
            provisioned = capacity * (mrm_replica_epochs / epochs)
            burn_per_day = (
                mrm_bytes_written
                / (provisioned * endurance)
                * (DAY / config.horizon_s)
            )
        else:
            burn_per_day = 0.0

        offered_rate = admitted / config.horizon_s
        users_day = tenant.users_per_day(offered_rate)

        tenant_tables[tenant.name] = {
            "admitted": admitted,
            "routed": routed,
            "shed": dict(sorted(shed.items())),
            "shed_total": shed_total,
            "requests_completed": completed,
            "requests_failed": failed,
            "in_flight": routed - completed - failed,
            "tokens_generated": tokens,
            "access_energy_j": access_j,
            "board_energy_j": board_j,
            "sla_attainment": attainment,
            "sla_counts": sla_counts,
            "ttft_p99_worst_cell_s": ttft_worst,
            "replica_epochs": replica_epochs,
            "replica_peak": replica_peak,
            "mrm_replica_epochs": mrm_replica_epochs,
            "mrm_weight_loads": weight_loads,
            "mrm_bytes_written": mrm_bytes_written,
            "mrm_endurance_burn_per_day": burn_per_day,
            "offered_rate_per_s": offered_rate,
            "users_per_day": users_day,
        }

        labels = {"tenant": tenant.name}
        obs.counter("fleet_requests_admitted", **labels).add(admitted)
        obs.counter("fleet_requests_routed", **labels).add(routed)
        for reason in sorted(shed):
            obs.counter(
                "fleet_requests_shed", reason=reason, **labels
            ).add(shed[reason])
        obs.counter("fleet_requests_completed", **labels).add(completed)
        obs.counter("fleet_requests_failed", **labels).add(failed)
        obs.counter("fleet_tokens_generated", **labels).add(tokens)
        obs.counter("fleet_mrm_bytes_written", **labels).add(
            mrm_bytes_written
        )
        obs.gauge("fleet_replica_epochs", **labels).set(replica_epochs)
        obs.gauge("fleet_replica_peak", **labels).set(replica_peak)
        obs.gauge("fleet_mrm_replica_epochs", **labels).set(
            mrm_replica_epochs
        )
        obs.gauge("fleet_users_per_day", **labels).set(users_day)
        obs.gauge("fleet_ttft_p99_worst_cell_s", **labels).set(ttft_worst)
        obs.gauge("fleet_mrm_endurance_burn_per_day", **labels).set(
            burn_per_day
        )
        for sla in sorted(attainment):
            obs.gauge(
                "fleet_sla_attainment", sla=sla, **labels
            ).set(attainment[sla])

    for row in rows:
        table = cluster_tables[str(row["cluster"])]
        table["requests_completed"] += row["requests_completed"]
        table["tokens_generated"] += row["tokens_generated"]
        table["access_energy_j"] += row["access_energy_j"]
        table["board_energy_j"] += row["board_energy_j"]
        labels = {"cluster": row["cluster"], "tenant": row["tenant"]}
        obs.counter("fleet_cell_requests_completed", **labels).add(
            row["requests_completed"]
        )
        obs.counter("fleet_cell_tokens_generated", **labels).add(
            row["tokens_generated"]
        )
    for cluster in sorted(cluster_tables, key=int):
        table = cluster_tables[cluster]
        obs.counter(
            "fleet_cluster_requests_completed", cluster=cluster
        ).add(table["requests_completed"])
        obs.counter(
            "fleet_cluster_tokens_generated", cluster=cluster
        ).add(table["tokens_generated"])
        obs.gauge("fleet_cluster_replica_epochs", cluster=cluster).set(
            table["replica_epochs"]
        )

    modes = {"des": 0, "analytic": 0}
    for row in rows:
        modes[row["mode"]] += 1
    for mode in sorted(modes):
        obs.counter("fleet_cells", mode=mode).add(modes[mode])

    totals = {
        "admitted": sum(
            tenant_tables[name]["admitted"] for name in sorted(tenant_tables)
        ),
        "routed": sum(
            tenant_tables[name]["routed"] for name in sorted(tenant_tables)
        ),
        "shed": sum(
            tenant_tables[name]["shed_total"]
            for name in sorted(tenant_tables)
        ),
        "requests_completed": sum(
            tenant_tables[name]["requests_completed"]
            for name in sorted(tenant_tables)
        ),
        "requests_failed": sum(
            tenant_tables[name]["requests_failed"]
            for name in sorted(tenant_tables)
        ),
        "tokens_generated": sum(
            tenant_tables[name]["tokens_generated"]
            for name in sorted(tenant_tables)
        ),
        "users_per_day": math.fsum(
            tenant_tables[name]["users_per_day"]
            for name in sorted(tenant_tables)
        ),
        "num_cells": len(rows),
        "cells_analytic": modes["analytic"],
        "cells_des": modes["des"],
    }
    obs.gauge("fleet_users_per_day_total").set(totals["users_per_day"])

    return {
        "config": {
            "tenants": [tenant.name for tenant in tenants],
            "num_clusters": config.num_clusters,
            "horizon_s": config.horizon_s,
            "epoch_s": config.epoch_s,
            "epochs": epochs,
            "routing": config.routing,
            "scaling": config.scaling,
            "mode": config.mode,
            "rate_scale": config.rate_scale,
        },
        "tenants": tenant_tables,
        "clusters": cluster_tables,
        "totals": totals,
        "obs": obs.snapshot(),
    }


def run_fleet(
    config: FleetConfig,
    root_seed=0,
    workers: Optional[int] = None,
) -> Dict[str, Any]:
    """Run one fleet scenario end to end; pure in ``(config, root_seed)``.

    ``workers`` follows the :func:`repro.parallel.run_sweep` convention
    (``None`` → ``REPRO_WORKERS`` or serial); results are bit-identical
    for any worker count.
    """
    points, context = build_cells(config, root_seed=root_seed)
    from repro.parallel import run_sweep

    rows = run_sweep(
        fleet_cell_point, points, root_seed=root_seed, workers=workers
    )
    return aggregate_fleet(config, rows, context)
