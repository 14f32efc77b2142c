"""Deterministic observability: metrics, sim-time tracing, exporters.

The simulator's benchmarks assert final aggregates; this package makes
the *path* to those aggregates visible without breaking the library's
reproducibility contract.  Three pieces:

- :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges,
  windowed histograms (reusing :class:`repro.sim.stats.Histogram`) and
  string info annotations, addressed by Prometheus-style
  ``name{label=value}`` keys.  A disabled registry is the shared
  :data:`NULL_REGISTRY` no-op object, cheap enough to leave threaded
  through every hot path (asserted < 2% on the events/sec bench in
  ``benchmarks/obs/``).
- :class:`~repro.obs.tracing.Tracer` — span records stamped with
  **simulated** time only (never the wall clock; lint rule RL011
  enforces this).  The sim kernel opens one span per process.
- :mod:`~repro.obs.snapshot` / :mod:`~repro.obs.export` — a versioned,
  sorted-key snapshot schema with a commutative merge (how sweep
  workers' snapshots reduce in :mod:`repro.parallel`), plus JSON-lines
  trace and Prometheus-text exporters.

Determinism contract: with a fixed (config, seed), every snapshot and
trace is bit-identical between serial and parallel runs — labels and
values may not derive from wall clocks, ``id()``, process ids, or hash
order.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.registry import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    format_metric_name,
    parse_metric_name,
)
from repro.obs.snapshot import (
    SNAPSHOT_SCHEMA,
    canonical_json,
    diff_snapshots,
    empty_snapshot,
    load_snapshot,
    merge_snapshots,
    normalize_snapshot,
    relabel_snapshot,
    write_snapshot,
)
from repro.obs.tracing import Span, Tracer
from repro.obs.export import (
    prometheus_text,
    write_prometheus,
    write_trace_jsonl,
)

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Span",
    "Tracer",
    "SNAPSHOT_SCHEMA",
    "canonical_json",
    "diff_snapshots",
    "empty_snapshot",
    "format_metric_name",
    "load_snapshot",
    "merge_snapshots",
    "normalize_snapshot",
    "parse_metric_name",
    "prometheus_text",
    "relabel_snapshot",
    "write_prometheus",
    "write_snapshot",
    "write_trace_jsonl",
]
