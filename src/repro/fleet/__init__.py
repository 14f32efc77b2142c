"""Fleet-scale multi-tenant serving simulation (ROADMAP item 1).

Layers a fleet of simulated clusters over the single-cluster serving
stack: trace-driven tenant arrivals (:mod:`~repro.fleet.arrivals`),
reactive MRM-vs-HBM capacity planning (:mod:`~repro.fleet.autoscaler`),
pluggable fleet routing (:mod:`~repro.fleet.routing`) and the cell
decomposition + aggregation that keeps it all bit-identical across
sweep workers (:mod:`~repro.fleet.fleet`).  Experiments E13/E14 live in
:mod:`~repro.fleet.experiment`; see ``docs/FLEET.md``.
"""

from repro.fleet.arrivals import (
    diurnal_multiplier,
    generate_fleet_traces,
    generate_tenant_trace,
    merge_arrivals,
)
from repro.fleet.autoscaler import (
    AutoscalerConfig,
    TenantAllocation,
    apply_memory_config,
    epoch_count,
    epoch_demand_rps,
    plan_capacity,
    static_plan,
)
from repro.fleet.fleet import (
    FLEET_OBS_SCHEMA,
    SCALING_POLICIES,
    FleetConfig,
    aggregate_fleet,
    build_cells,
    fleet_cell_point,
    run_fleet,
)
from repro.fleet.routing import (
    ROUTING_POLICIES,
    SHED_NO_CAPACITY,
    SHED_OVERLOAD,
    FleetRouter,
    RoutingDecision,
)
from repro.fleet.tenant import (
    DEFAULT_TENANTS,
    TENANT_PROFILES,
    TenantConfig,
    validate_tenants,
)

__all__ = [
    "AutoscalerConfig",
    "DEFAULT_TENANTS",
    "FLEET_OBS_SCHEMA",
    "FleetConfig",
    "FleetRouter",
    "ROUTING_POLICIES",
    "RoutingDecision",
    "SCALING_POLICIES",
    "SHED_NO_CAPACITY",
    "SHED_OVERLOAD",
    "TENANT_PROFILES",
    "TenantAllocation",
    "TenantConfig",
    "aggregate_fleet",
    "apply_memory_config",
    "build_cells",
    "diurnal_multiplier",
    "epoch_count",
    "epoch_demand_rps",
    "fleet_cell_point",
    "generate_fleet_traces",
    "generate_tenant_trace",
    "merge_arrivals",
    "plan_capacity",
    "run_fleet",
    "static_plan",
    "validate_tenants",
]
