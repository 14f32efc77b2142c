"""Spans around each layer's public calls, and the profiler pass.

Every span is recorded by the benchmark from outside the program: each
target function is rebound, for the traced unit only, at the name its
caller looks up (``build_cells`` finds ``generate_fleet_traces`` in
:mod:`repro.fleet.fleet`; ``fleet_cell_point`` imports
``analytic_cluster_report`` from :mod:`repro.inference.analytic` at
call time), and restored afterwards.  Spans live in memory until the
run ends.  Inside the DES the layers call each other through the
kernel, so their self-time shares come from a ``cProfile`` pass grouped
by module instead.
"""

from __future__ import annotations

import cProfile
import functools
import math
import os
import pstats
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro.sim
from repro.faults import experiment as faults_experiment
from repro.fleet import fleet as fleet_module
from repro.fleet.routing import FleetRouter
from repro.inference import analytic as analytic_module
from repro.inference.cluster import Cluster
from repro.obs import MetricsRegistry


class Spans:
    """In-memory span log: name, start, end, parent index, attributes."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        requests_arg: Optional[int] = None,
        on_result: Optional[Callable[[Any], Dict[str, Any]]] = None,
    ) -> Callable:
        """``fn`` with a span around each call.

        ``requests_arg`` names the positional request iterable; it is
        materialised *before* the span opens, so building the requests
        counts towards the caller, and its length is recorded.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs: Dict[str, Any] = {}
            if requests_arg is not None:
                args = list(args)
                args[requests_arg] = list(args[requests_arg])
                attrs["requests"] = len(args[requests_arg])
            span = {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._open[-1] if self._open else None,
                "attrs": attrs,
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                attrs.update(on_result(result))
            return result

        return traced


def _cluster_counts(report) -> Dict[str, Any]:
    return {
        "tokens_generated": report.tokens_generated,
        "kv_recompute_tokens": report.kv_recompute_tokens,
    }


def _trace_counts(traces) -> Dict[str, Any]:
    return {"requests": sum(len(trace) for trace in traces.values())}


#: ``(owner, attribute, span name, requests_arg, on_result)`` for every
#: public call the traced run times.
TARGETS: Tuple[Tuple[Any, str, str, Optional[int], Optional[Callable]], ...] = (
    (fleet_module, "run_fleet", "fleet.run", None, None),
    (fleet_module, "build_cells", "fleet.build_cells", None, None),
    (fleet_module, "generate_fleet_traces", "fleet.arrivals", None, _trace_counts),
    (fleet_module, "epoch_demand_rps", "fleet.autoscaler", None, None),
    (fleet_module, "plan_capacity", "fleet.autoscaler", None, None),
    (fleet_module, "static_plan", "fleet.autoscaler", None, None),
    (fleet_module, "merge_arrivals", "fleet.routing", None, None),
    (FleetRouter, "route", "fleet.routing", None, None),
    (fleet_module, "fleet_cell_point", "fleet.cell", None, None),
    (fleet_module, "aggregate_fleet", "fleet.aggregate", None, None),
    (analytic_module, "analytic_cluster_report", "inference.analytic", 2, None),
    (Cluster, "run", "inference.cluster", 1, _cluster_counts),
    (faults_experiment, "generate_schedule", "faults.schedule", None, None),
    (faults_experiment, "generate_correlated_schedule", "faults.schedule", None, None),
    (faults_experiment, "chaos_point", "faults.chaos", None, None),
    (faults_experiment, "controller_point", "faults.controller", None, None),
)

#: Where the DES layers look ``Simulator`` up: ``fleet_cell_point``
#: imports it from :mod:`repro.sim` at call time; the fault experiments
#: bound it at import.
SIMULATOR_OWNERS = (repro.sim, faults_experiment)


def _counting_simulator(base: type, registry: MetricsRegistry) -> type:
    """``base`` constructed with ``registry`` when the caller gave none,
    so the kernel's own ``sim.events_total`` counter runs."""

    class CountingSimulator(base):
        __slots__ = ()

        def __init__(self, start_time=0.0, obs=None, tracer=None):
            super().__init__(
                start_time, registry if obs is None else obs, tracer
            )

    return CountingSimulator


@contextmanager
def traced(spans: Spans, registry: MetricsRegistry) -> Iterator[None]:
    """Install every span wrapper and the counting simulator; restore
    the original bindings on exit, whatever happens inside."""
    saved = []
    try:
        for owner, attribute, name, requests_arg, on_result in TARGETS:
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(
                owner,
                attribute,
                spans.wrap(name, original, requests_arg, on_result),
            )
        for owner in SIMULATOR_OWNERS:
            original = vars(owner)["Simulator"]
            saved.append((owner, "Simulator", original))
            owner.Simulator = _counting_simulator(original, registry)
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def bindings() -> List[Any]:
    """The current object behind every name :func:`traced` rebinds."""
    return [vars(owner)[attribute] for owner, attribute, *_ in TARGETS] + [
        vars(owner)["Simulator"] for owner in SIMULATOR_OWNERS
    ]


# ----------------------------------------------------------------------
# Profiler pass
# ----------------------------------------------------------------------
#: Self-time groups: metric prefix -> modules under ``repro``.
PROFILE_GROUPS = {
    "inference.engine": ("inference.engine",),
    "sim.stats": ("sim.stats",),
    "sim.core": ("sim.events", "sim.kernel", "sim.process"),
    "inference.roofline": ("inference.roofline",),
    "inference.batching": ("inference.batching",),
    "inference.kvcache": ("inference.kvcache", "inference.paging"),
    "workload": ("workload.phases", "workload.model"),
}


def profile(fn: Callable[[], Any], src_dir: str) -> Tuple[Any, Dict[str, float]]:
    """Run ``fn`` under ``cProfile``; return its result and each
    group's share of total self time."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    by_module: Dict[str, float] = {}
    total = 0.0
    for (filename, _line, _name), entry in pstats.Stats(profiler).stats.items():
        self_time = entry[2]
        total += self_time
        module = _repro_module(filename, src_dir)
        if module is not None:
            by_module[module] = by_module.get(module, 0.0) + self_time
    shares = {}
    for group, modules in PROFILE_GROUPS.items():
        grouped = sum(by_module.get(module, 0.0) for module in modules)
        shares[group] = grouped / total if total > 0 else 0.0
    return result, shares


def _repro_module(filename: str, src_dir: str) -> Optional[str]:
    """``engine.py`` under ``src/repro/inference`` -> ``inference.engine``."""
    package = os.path.join(os.path.abspath(src_dir), "repro") + os.sep
    path = os.path.abspath(filename)
    if not path.startswith(package) or not path.endswith(".py"):
        return None
    return path[len(package):-3].replace(os.sep, ".")


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _total(spans: Sequence[dict], name: str) -> float:
    return float(
        sum(s["end"] - s["start"] for s in spans if s["name"] == name)
    )


def _self_time(spans: Sequence[dict], name: str) -> float:
    """Summed duration of ``name`` spans minus their direct children."""
    total = 0.0
    for index, span in enumerate(spans):
        if span["name"] != name:
            continue
        children = sum(
            child["end"] - child["start"]
            for child in spans
            if child["parent"] == index
        )
        total += span["end"] - span["start"] - children
    return total


def size_exponent(sizes: Sequence[int], seconds: Sequence[float]) -> float:
    """Log-log slope of cell host time against cell request count."""
    if len(set(sizes)) < 2:
        return 0.0
    slope, _intercept = np.polyfit(np.log(sizes), np.log(seconds), 1)
    return float(slope)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    spans: Sequence[dict],
    events: float,
    result: Dict[str, Any],
    cell_rows: Sequence[dict],
) -> Dict[str, float]:
    """Every span- and count-derived per-layer metric of one traced unit.

    Layers the workload never calls read zero.
    """
    analytic = [s for s in spans if s["name"] == "inference.analytic"]
    analytic_s = [s["end"] - s["start"] for s in analytic]
    analytic_n = [s["attrs"]["requests"] for s in analytic]
    cluster = [s for s in spans if s["name"] == "inference.cluster"]
    cluster_s = _total(spans, "inference.cluster")
    cluster_n = sum(s["attrs"]["requests"] for s in cluster)
    tokens = sum(s["attrs"].get("tokens_generated", 0) for s in cluster)
    recomputed = sum(s["attrs"].get("kv_recompute_tokens", 0) for s in cluster)
    arrivals = [s for s in spans if s["name"] == "fleet.arrivals"]
    totals = result.get("totals", {"shed": 0, "admitted": 0})
    chaos = result.get("chaos", [])
    controller = result.get("controller", [])

    metrics = {
        "fleet.arrivals.host_s": _total(spans, "fleet.arrivals"),
        "fleet.arrivals.requests": float(
            sum(s["attrs"]["requests"] for s in arrivals)
        ),
        "fleet.autoscaler.host_s": _total(spans, "fleet.autoscaler"),
        "fleet.routing.host_s": _total(spans, "fleet.routing"),
        "fleet.routing.shed_share": _share(totals["shed"], totals["admitted"]),
        "fleet.cells.host_s": _self_time(spans, "fleet.build_cells"),
        "fleet.cell.convert_host_s": _self_time(spans, "fleet.cell"),
        "inference.analytic.host_s": _total(spans, "inference.analytic"),
        "inference.analytic.cell_p50_s": (
            float(np.percentile(analytic_s, 50)) if analytic_s else 0.0
        ),
        "inference.analytic.cell_p90_s": (
            float(np.percentile(analytic_s, 90)) if analytic_s else 0.0
        ),
        "inference.analytic.us_per_request": 1e6
        * _share(sum(analytic_s), sum(analytic_n)),
        "inference.analytic.fallback_share": _share(
            sum(1 for row in cell_rows if row.get("analytic_fallback")),
            len(analytic),
        ),
        "inference.analytic.size_exponent": size_exponent(
            analytic_n, analytic_s
        ),
        "fleet.aggregate.host_s": _total(spans, "fleet.aggregate"),
        "inference.cluster.host_s": cluster_s,
        "inference.cluster.us_per_request": 1e6 * _share(cluster_s, cluster_n),
        "sim.events": float(events),
        "sim.events_per_host_s": _share(events, cluster_s),
        "faults.schedule.host_s": _total(spans, "faults.schedule"),
        "faults.chaos.host_s": _total(spans, "faults.chaos"),
        "faults.controller.host_s": _total(spans, "faults.controller"),
        "inference.engine.kv_recompute_share": _share(recomputed, tokens),
    }
    arms = [row[arm] for row in chaos for arm in ("baseline", "mitigated")]
    hedges = sum(arm["hedges"] for arm in arms)
    metrics["inference.resilience.retries"] = float(
        sum(arm["retries"] for arm in arms)
    )
    metrics["inference.resilience.hedges"] = float(hedges)
    metrics["inference.resilience.hedge_win_share"] = _share(
        sum(arm["hedge_wins"] for arm in arms), hedges
    )
    device_arms = [
        row[arm] for row in controller for arm in ("baseline", "mitigated")
    ]
    for counter in ("read_retries", "blocks_recovered", "escalated_refreshes"):
        metrics[f"core.controller.{counter}"] = float(
            sum(arm[counter] for arm in device_arms)
        )
    metrics["core.controller.mitigated_availability_min"] = min(
        (
            row["mitigated"]["availability"]
            for row in controller
            if row["rate_multiplier"] > 0
        ),
        default=1.0,
    )
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {name} is not finite")
    return metrics
