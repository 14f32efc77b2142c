"""Reactive per-tenant capacity planning: replicas and MRM-vs-HBM.

The autoscaler closes ROADMAP item 1's loop: *observed demand in, a
capacity plan out*.  Time is divided into fixed epochs; each epoch's
plan reacts to the demand observed in the previous epoch (classic
reactive autoscaling — it lags by construction, which is exactly the
behaviour the E14 comparison against static peak provisioning prices).

Per tenant and epoch the planner decides:

- **replica count** — ``ceil(demand_rps / target_rps_per_replica)``
  with hysteresis: scale-up is immediate (underprovisioning burns SLO),
  scale-down waits ``hysteresis_epochs`` epochs of low utilization
  (flapping burns model-swap downtime, see
  :class:`repro.inference.deployment.ModelSwapModel`), bounded by the
  tenant's ``min/max_replicas``, the fleet-wide replica budget, and
  per-cluster capacity;
- **memory configuration** — HBM-only replicas, or MRM-augmented
  replicas (weights placed on an MRM tier, freeing HBM for KV) when
  the expected resident bytes at the epoch's demand no longer fit in
  HBM headroom.  This is the paper's provisioning question asked per
  tenant: which retention class does *this* workload's capacity come
  from?
- **cluster spread** — replicas placed one at a time round-robin over
  clusters starting at the tenant's rotation offset, skipping clusters
  that are full; placement is a pure function of (tenants, demand,
  config), so plans are identical across sweep workers.

Determinism contract: no RNG anywhere in this module — plans are pure
arithmetic over the demand series, and fleet budget contention resolves
in tenant declaration order (declaration order is priority order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.fleet.tenant import TenantConfig
from repro.inference.accelerator import AcceleratorConfig
from repro.tiering.tiers import copackaged_mrm_tier
from repro.workload.traces import TraceRecord

#: Memory configurations a tenant allocation may carry.
MEMORY_CONFIGS = ("hbm", "mrm")

#: MRM capacity provisioned per replica, as a multiple of the replica's
#: HBM capacity (MRM's density advantage is the point: Section 2.1's
#: "HBM density wall" is what the extra capacity steps around).
MRM_CAPACITY_MULTIPLE = 4


def apply_memory_config(
    accelerator: AcceleratorConfig, memory: str
) -> Tuple[AcceleratorConfig, Dict[str, str]]:
    """The (accelerator, placement) pair a memory configuration means.

    ``"hbm"`` leaves the accelerator untouched; ``"mrm"`` attaches a
    co-packaged MRM tier of :data:`MRM_CAPACITY_MULTIPLE` times the HBM
    capacity and places weights on it (the read-dominated structure the
    paper moves first), keeping KV and activations on HBM.
    """
    if memory not in MEMORY_CONFIGS:
        raise ValueError(
            f"unknown memory config {memory!r}; known: "
            f"{', '.join(MEMORY_CONFIGS)}"
        )
    if memory == "hbm":
        return accelerator, {}
    hbm = accelerator.tier("hbm")
    mrm = copackaged_mrm_tier(hbm, MRM_CAPACITY_MULTIPLE * hbm.capacity_bytes)
    return accelerator.with_tiers((hbm, mrm)), {"weights": "mrm"}


@dataclass(frozen=True)
class AutoscalerConfig:
    """The planner's knobs (fleet-wide)."""

    #: Scale up when demand exceeds this fraction of provisioned rate.
    scale_up_utilization: float = 0.8
    #: Scale down only when demand falls below this fraction ...
    scale_down_utilization: float = 0.4
    #: ... for at least this many consecutive epochs (hysteresis).
    hysteresis_epochs: int = 1
    #: Replica slots one cluster can host (all tenants combined).
    cluster_capacity_replicas: int = 16
    #: Replica slots the whole fleet can host (capacity limit).
    fleet_max_replicas: int = 256
    #: Switch a tenant's replicas to the MRM configuration when expected
    #: resident bytes exceed this fraction of the replica's HBM.
    mrm_headroom_fraction: float = 0.8

    def __post_init__(self) -> None:
        if not 0 < self.scale_down_utilization < self.scale_up_utilization <= 1:
            raise ValueError(
                "need 0 < scale_down < scale_up <= 1 utilization thresholds"
            )
        if self.hysteresis_epochs < 0:
            raise ValueError("hysteresis must be >= 0 epochs")
        if self.cluster_capacity_replicas < 1:
            raise ValueError("cluster capacity must be >= 1 replica")
        if self.fleet_max_replicas < 1:
            raise ValueError("fleet capacity must be >= 1 replica")
        if not 0 < self.mrm_headroom_fraction <= 1:
            raise ValueError("MRM headroom fraction must be in (0, 1]")


@dataclass(frozen=True)
class TenantAllocation:
    """One tenant's capacity in one epoch."""

    tenant: str
    replicas: int
    memory: str  # "hbm" | "mrm"
    per_cluster: Tuple[Tuple[int, int], ...]  # ((cluster, replicas), ...)

    def __post_init__(self) -> None:
        if self.replicas < 0:
            raise ValueError("replica count cannot be negative")
        if self.memory not in MEMORY_CONFIGS:
            raise ValueError(f"unknown memory config {self.memory!r}")
        spread = sum(count for _cluster, count in self.per_cluster)
        if spread != self.replicas:
            raise ValueError(
                f"cluster spread {spread} != replica count {self.replicas}"
            )

    def replicas_in(self, cluster: int) -> int:
        for candidate, count in self.per_cluster:
            if candidate == cluster:
                return count
        return 0


def epoch_count(horizon_s: float, epoch_s: float) -> int:
    """Number of (possibly partial-final) epochs covering a horizon."""
    if horizon_s <= 0 or epoch_s <= 0:
        raise ValueError("horizon and epoch length must be positive")
    return max(1, int(math.ceil(horizon_s / epoch_s - 1e-12)))


def epoch_demand_rps(
    traces: Dict[str, List[TraceRecord]],
    tenants: Sequence[TenantConfig],
    horizon_s: float,
    epoch_s: float,
) -> List[Dict[str, float]]:
    """Observed demand series: requests/s per tenant per epoch.

    The final epoch may be partial; its rate uses the actual covered
    span so short horizons don't understate demand.
    """
    epochs = epoch_count(horizon_s, epoch_s)
    counts = [
        {tenant.name: 0 for tenant in tenants} for _ in range(epochs)
    ]
    for tenant in tenants:
        for record in traces.get(tenant.name, []):
            epoch = min(int(record.arrival_time // epoch_s), epochs - 1)
            counts[epoch][tenant.name] += 1
    series: List[Dict[str, float]] = []
    for epoch in range(epochs):
        span = min(epoch_s, horizon_s - epoch * epoch_s)
        series.append(
            {
                tenant.name: counts[epoch][tenant.name] / span
                for tenant in tenants
            }
        )
    return series


def _expected_resident_bytes(
    tenant: TenantConfig, utilization: float, model, accelerator
) -> float:
    """Expected bytes resident on one replica at a utilization level.

    Weights are always resident; KV residency scales with the expected
    steady-state batch (utilization × batch cap) at the profile's mean
    context.  Means are closed-form from the token distributions, so
    the estimate is deterministic.
    """
    profile = tenant.token_profile
    mean_context = profile.prompt.mean() + profile.output.mean()
    mean_context = min(mean_context, float(model.context_limit_tokens))
    expected_batch = max(0.0, min(1.0, utilization)) * tenant.max_batch_size
    return float(model.weights_bytes) + (
        model.kv_cache_bytes(int(round(mean_context))) * expected_batch
    )


def _memory_config_for(
    tenant: TenantConfig, utilization: float, config: AutoscalerConfig,
    model, accelerator,
) -> str:
    hbm = accelerator.tier("hbm")
    resident = _expected_resident_bytes(tenant, utilization, model,
                                        accelerator)
    if resident > config.mrm_headroom_fraction * hbm.capacity_bytes:
        return "mrm"
    return "hbm"


def _spread(
    replicas: int,
    num_clusters: int,
    rotation: int,
    cluster_used: List[int],
    cluster_capacity: int,
) -> Tuple[Tuple[Tuple[int, int], ...], int]:
    """Place replicas one at a time round-robin from ``rotation``.

    Skips full clusters; replicas that fit nowhere are dropped (the
    capacity limit binds).  Returns the sorted spread and the count
    actually placed.  ``cluster_used`` is mutated with the placements.
    """
    placed: Dict[int, int] = {}
    count = 0
    offset = 0
    attempts_without_fit = 0
    while count < replicas and attempts_without_fit < num_clusters:
        cluster = (rotation + offset) % num_clusters
        offset += 1
        if cluster_used[cluster] >= cluster_capacity:
            attempts_without_fit += 1
            continue
        attempts_without_fit = 0
        cluster_used[cluster] += 1
        placed[cluster] = placed.get(cluster, 0) + 1
        count += 1
    return tuple(sorted(placed.items())), count


def plan_capacity(
    tenants: Sequence[TenantConfig],
    demand_series: Sequence[Dict[str, float]],
    num_clusters: int,
    config: AutoscalerConfig,
) -> List[Dict[str, TenantAllocation]]:
    """The reactive epoch plan for a demand series.

    ``demand_series[e]`` is the demand *observed during* epoch ``e``;
    the plan for epoch ``e`` reacts to ``demand_series[e-1]`` (epoch 0
    provisions against each tenant's configured baseline rate — the
    deployment-time prior).
    """
    from repro.inference.sweep import resolve_accelerator, resolve_model
    from repro.inference.cluster import tensor_parallel_group

    if num_clusters < 1:
        raise ValueError("need at least one cluster")
    tenants = list(tenants)
    resolved = {}
    for tenant in tenants:
        model = resolve_model(tenant.model)
        accelerator = tensor_parallel_group(
            resolve_accelerator(tenant.accelerator), tenant.tp
        )
        resolved[tenant.name] = (model, accelerator)

    current: Dict[str, int] = {}
    low_streak: Dict[str, int] = {}
    for tenant in tenants:
        prior = int(math.ceil(
            tenant.rate_per_s / tenant.target_rps_per_replica - 1e-12
        ))
        floor = tenant.min_replicas
        if tenant.rate_per_s > 0:
            floor = max(floor, 1)
        current[tenant.name] = min(max(prior, floor), tenant.max_replicas)
        low_streak[tenant.name] = 0

    plan: List[Dict[str, TenantAllocation]] = []
    for epoch in range(len(demand_series)):
        if epoch == 0:
            observed = {
                tenant.name: tenant.rate_per_s for tenant in tenants
            }
        else:
            observed = demand_series[epoch - 1]

        # 1. Per-tenant desired counts with hysteresis.
        wishes: Dict[str, int] = {}
        for tenant in tenants:
            demand = observed.get(tenant.name, 0.0)
            have = current[tenant.name]
            desired = int(math.ceil(
                demand / tenant.target_rps_per_replica - 1e-12
            ))
            provisioned_rps = have * tenant.target_rps_per_replica
            if have == 0:
                utilization = math.inf if demand > 0 else 0.0
            else:
                utilization = demand / provisioned_rps
            if desired > have and utilization > config.scale_up_utilization:
                have = desired  # scale up immediately
                low_streak[tenant.name] = 0
            elif (
                desired < have
                and utilization < config.scale_down_utilization
            ):
                low_streak[tenant.name] += 1
                if low_streak[tenant.name] > config.hysteresis_epochs:
                    have = desired
                    low_streak[tenant.name] = 0
            else:
                low_streak[tenant.name] = 0
            have = min(max(have, tenant.min_replicas), tenant.max_replicas)
            current[tenant.name] = have
            wishes[tenant.name] = have

        # 2. Fleet budget, granted in declaration (priority) order.
        remaining = config.fleet_max_replicas
        granted: Dict[str, int] = {}
        for tenant in tenants:
            granted[tenant.name] = min(wishes[tenant.name], remaining)
            remaining -= granted[tenant.name]

        # 3. Cluster spread under per-cluster capacity.
        cluster_used = [0] * num_clusters
        allocations: Dict[str, TenantAllocation] = {}
        for rank, tenant in enumerate(tenants):
            spread, placed = _spread(
                granted[tenant.name], num_clusters, rank % num_clusters,
                cluster_used, config.cluster_capacity_replicas,
            )
            demand = observed.get(tenant.name, 0.0)
            if placed == 0:
                utilization = 0.0
            else:
                utilization = demand / (
                    placed * tenant.target_rps_per_replica
                )
            model, accelerator = resolved[tenant.name]
            allocations[tenant.name] = TenantAllocation(
                tenant=tenant.name,
                replicas=placed,
                memory=_memory_config_for(
                    tenant, utilization, config, model, accelerator
                ),
                per_cluster=spread,
            )
            # The spread is what the tenant actually got; keep the
            # controller's state honest so later epochs react to real
            # capacity, not the unmet wish.
            current[tenant.name] = placed
        plan.append(allocations)
    return plan


def static_plan(
    tenants: Sequence[TenantConfig],
    demand_series: Sequence[Dict[str, float]],
    num_clusters: int,
    config: AutoscalerConfig,
) -> List[Dict[str, TenantAllocation]]:
    """The E14 comparison arm: peak provisioning, held for the horizon.

    Each tenant gets its whole-horizon *peak* desired replica count in
    every epoch — no reaction, no hysteresis, the capacity a fleet
    without an autoscaler must hold to survive its worst epoch.
    Budget and spread rules are identical to :func:`plan_capacity` so
    the only difference E14 measures is the scaling policy.
    """
    from repro.inference.sweep import resolve_accelerator, resolve_model
    from repro.inference.cluster import tensor_parallel_group

    if num_clusters < 1:
        raise ValueError("need at least one cluster")
    tenants = list(tenants)
    peaks: Dict[str, int] = {}
    for tenant in tenants:
        demands = [tenant.rate_per_s] + [
            series.get(tenant.name, 0.0) for series in demand_series
        ]
        desired = int(math.ceil(
            max(demands) / tenant.target_rps_per_replica - 1e-12
        ))
        floor = tenant.min_replicas
        if any(d > 0 for d in demands):
            floor = max(floor, 1)
        peaks[tenant.name] = min(max(desired, floor), tenant.max_replicas)

    # Fleet budget in declaration order, then the same round-robin
    # spread the reactive planner uses; held for every epoch.
    remaining = config.fleet_max_replicas
    granted: Dict[str, int] = {}
    for tenant in tenants:
        granted[tenant.name] = min(peaks[tenant.name], remaining)
        remaining -= granted[tenant.name]
    cluster_used = [0] * num_clusters
    allocations: Dict[str, TenantAllocation] = {}
    for rank, tenant in enumerate(tenants):
        spread, placed = _spread(
            granted[tenant.name], num_clusters, rank % num_clusters,
            cluster_used, config.cluster_capacity_replicas,
        )
        # Memory config sized for the peak the capacity is held against.
        peak_demand = peaks[tenant.name] * tenant.target_rps_per_replica
        if placed == 0:
            utilization = 0.0
        else:
            utilization = peak_demand / (
                placed * tenant.target_rps_per_replica
            )
        model = resolve_model(tenant.model)
        accelerator = tensor_parallel_group(
            resolve_accelerator(tenant.accelerator), tenant.tp
        )
        allocations[tenant.name] = TenantAllocation(
            tenant=tenant.name,
            replicas=placed,
            memory=_memory_config_for(
                tenant, utilization, config, model, accelerator
            ),
            per_cluster=spread,
        )
    return [dict(allocations) for _ in range(len(demand_series))]
