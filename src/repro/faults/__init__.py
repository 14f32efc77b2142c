"""Deterministic fault injection and graceful degradation.

The robustness layer of the MRM stack.  The paper's control-plane
argument (Section 4) is that software with global visibility is
best-placed to manage retention, wear *and failure*: this package makes
that claim testable.  It threads failure events through every layer —

- **devices** (:mod:`repro.devices.catalog`) publish per-technology
  fault rates (:class:`~repro.devices.base.FaultRateSpec`);
- **schedules** (:mod:`repro.faults.schedule`) turn rates + a seed into
  a frozen, bit-reproducible fault timeline;
- **injectors** (:mod:`repro.faults.injector`) apply the timeline to a
  controller/device or a serving cluster;
- **mitigations** live where they belong: retry/remap/refresh-escalation
  in :class:`~repro.core.controller.MRMController`, uncorrectable-error
  outcomes in :mod:`repro.ecc`, draining a failing device onto the
  controller's ``migration_queue`` (the injector's device-failure
  handler), KV recompute-from-prefix in
  :class:`~repro.inference.engine.InferenceEngine`;
- **experiments** (:mod:`repro.faults.experiment`) measure availability
  and goodput vs fault rate, with and without the mitigations.

Everything is deterministic: one seed fixes the whole fault timeline
and all of its effects, serially or under
:func:`repro.parallel.run_sweep` — see ``docs/ROBUSTNESS.md``.
"""

from repro.faults.domains import (
    FaultDomain,
    FaultTopology,
    cluster_topology,
    validate_domain_rates,
)
from repro.faults.events import (
    KIND_ORDER,
    FaultEvent,
    FaultKind,
    timeline_fingerprint,
)
from repro.faults.experiment import (
    chaos_grid,
    chaos_point,
    controller_grid,
    controller_point,
    run_chaos_experiment,
    run_controller_experiment,
    run_serving_experiment,
    serving_grid,
    serving_point,
)
from repro.faults.injector import (
    ControllerFaultInjector,
    FaultLog,
    spawn_domain_faults,
    spawn_kv_faults,
)
from repro.faults.rates import KindRates, rates_for
from repro.faults.schedule import (
    FaultSchedule,
    generate_correlated_schedule,
    generate_schedule,
)

__all__ = [
    "KIND_ORDER",
    "ControllerFaultInjector",
    "FaultDomain",
    "FaultEvent",
    "FaultKind",
    "FaultLog",
    "FaultSchedule",
    "FaultTopology",
    "KindRates",
    "chaos_grid",
    "chaos_point",
    "cluster_topology",
    "controller_grid",
    "controller_point",
    "generate_correlated_schedule",
    "generate_schedule",
    "rates_for",
    "run_chaos_experiment",
    "run_controller_experiment",
    "run_serving_experiment",
    "serving_grid",
    "serving_point",
    "spawn_domain_faults",
    "spawn_kv_faults",
    "timeline_fingerprint",
    "validate_domain_rates",
]
