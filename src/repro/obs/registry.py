"""The metrics registry and its no-op twin.

Metric kinds and their cross-worker merge semantics (see
:func:`repro.obs.snapshot.merge_snapshots`):

- **counter** — monotonically increasing; merges by sum.
- **gauge** — last-set level; merges by sum (a merged snapshot reads as
  the fleet-wide total, e.g. resident bytes across workers).
- **histogram** — sample distribution backed by
  :class:`repro.sim.stats.Histogram`; snapshots carry exact moments
  (count/sum/min/max) plus a fixed quantile set.  Moments merge
  exactly; quantiles cannot be merged from summaries and become
  ``None`` in merged snapshots.
- **info** — a string annotation (schema versions, fingerprints);
  merges order-fixed first-value-wins and flags conflicts.

Naming: metrics are addressed as ``name{label=value,...}`` with labels
sorted by key, so the registry needs no separate label dimension and
snapshots stay flat, diffable JSON.  Names and labels must be pure
functions of (config, seed): lint rule RL011 rejects wall-clock or
``id()``-derived label/value expressions.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.sim.stats import Histogram as _SampleHistogram

#: Characters that would break the ``name{a=b,c=d}`` addressing scheme.
_FORBIDDEN = set('{}=,"\n')

#: Quantiles every histogram snapshot reports.
HISTOGRAM_QUANTILES = (0.5, 0.9, 0.99)


def _check_token(token: str, what: str) -> str:
    if not token:
        raise ValueError(f"{what} must be non-empty")
    bad = _FORBIDDEN.intersection(token)
    if bad:
        raise ValueError(
            f"{what} {token!r} contains reserved character(s) {sorted(bad)}"
        )
    return token


def format_metric_name(name: str, labels: Optional[Dict[str, object]] = None) -> str:
    """Canonical ``name{k=v,...}`` key with labels sorted by key."""
    _check_token(name, "metric name")
    if not labels:
        return name
    parts = []
    for key in sorted(labels):
        _check_token(key, "label key")
        value = _check_token(str(labels[key]), "label value")
        parts.append(f"{key}={value}")
    return f"{name}{{{','.join(parts)}}}"


def parse_metric_name(full: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`format_metric_name`."""
    if not full.endswith("}") or "{" not in full:
        return full, {}
    name, _, rest = full.partition("{")
    labels: Dict[str, str] = {}
    for pair in rest[:-1].split(","):
        if pair:
            key, _, value = pair.partition("=")
            labels[key] = value
    return name, labels


class ObsCounter:
    """Monotonic counter (events, bytes, tokens)."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ObsCounter {self.name}={self.value}>"


class ObsGauge:
    """Last-set level (occupancy, queue depth, resident bytes)."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ObsGauge {self.name}={self.value}>"


class ObsHistogram:
    """Sample distribution; storage is :class:`repro.sim.stats.Histogram`."""

    kind = "histogram"
    __slots__ = ("name", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples = _SampleHistogram(name)

    def observe(self, value: float) -> None:
        self.samples.observe(value)

    def observe_many(self, values: Sequence[float]) -> None:
        self.samples.observe_many(values)

    def summary(self) -> Dict[str, object]:
        """The snapshot form: exact moments plus fixed quantiles."""
        h = self.samples
        out: Dict[str, object] = {
            "count": h.count,
            "sum": h.total,
            "min": None if h.count == 0 else h.min(),
            "max": None if h.count == 0 else h.max(),
        }
        for q in HISTOGRAM_QUANTILES:
            out[f"p{int(q * 100)}"] = h.quantile(q)
        return out


class ObsInfo:
    """A string annotation (fingerprints, schema/config identifiers)."""

    kind = "info"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = ""

    def set(self, value: str) -> None:
        self.value = str(value)


class MetricsRegistry:
    """Named bag of observability metrics with lazy creation.

    >>> reg = MetricsRegistry()
    >>> reg.counter("reads_total", device="mrm0").add(3)
    >>> reg.snapshot()["counters"]["reads_total{device=mrm0}"]
    3.0
    """

    #: Distinguishes a live registry from :data:`NULL_REGISTRY` without
    #: an isinstance check in hot paths.
    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, labels: Dict[str, object], cls: type):
        full = format_metric_name(name, labels)
        metric = self._metrics.get(full)
        if metric is None:
            metric = cls(full)
            self._metrics[full] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {full!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: object) -> ObsCounter:
        return self._get(name, labels, ObsCounter)

    def gauge(self, name: str, **labels: object) -> ObsGauge:
        return self._get(name, labels, ObsGauge)

    def histogram(self, name: str, **labels: object) -> ObsHistogram:
        return self._get(name, labels, ObsHistogram)

    def info(self, name: str, **labels: object) -> ObsInfo:
        return self._get(name, labels, ObsInfo)

    def __contains__(self, full_name: str) -> bool:
        return full_name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> Sequence[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, object]:
        """The versioned, sorted-key snapshot of every metric.

        Shape (see ``docs/OBSERVABILITY.md`` for the schema contract)::

            {"schema": ..., "counters": {...}, "gauges": {...},
             "histograms": {...}, "info": {...}}
        """
        from repro.obs.snapshot import empty_snapshot

        snap = empty_snapshot()
        for full in sorted(self._metrics):
            metric = self._metrics[full]
            if isinstance(metric, ObsCounter):
                snap["counters"][full] = metric.value
            elif isinstance(metric, ObsGauge):
                snap["gauges"][full] = metric.value
            elif isinstance(metric, ObsHistogram):
                snap["histograms"][full] = metric.summary()
            elif isinstance(metric, ObsInfo):
                snap["info"][full] = metric.value
        return snap


class _NullMetric:
    """Accepts every recording call and does nothing.

    One shared instance stands in for every metric of a
    :class:`NullRegistry`, so a disabled registry allocates nothing
    per call site.
    """

    kind = "null"
    __slots__ = ()
    name = ""
    value = 0.0

    def add(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: object) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Sequence[float]) -> None:
        pass

    def summary(self) -> Dict[str, object]:
        return {}


_NULL_METRIC = _NullMetric()


class NullRegistry:
    """The disabled registry: every accessor returns the shared no-op
    metric; :meth:`snapshot` is empty.  Components hold this by default
    so instrumentation costs one attribute call when observability is
    off (< 2% on the events/sec bench, asserted in ``benchmarks/obs/``).
    """

    enabled = False

    def counter(self, name: str, **labels: object) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, **labels: object) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, **labels: object) -> _NullMetric:
        return _NULL_METRIC

    def info(self, name: str, **labels: object) -> _NullMetric:
        return _NULL_METRIC

    def __contains__(self, full_name: str) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def names(self) -> Sequence[str]:
        return []

    def snapshot(self) -> Dict[str, object]:
        from repro.obs.snapshot import empty_snapshot

        return empty_snapshot()


#: The shared disabled registry every instrumented component defaults to.
NULL_REGISTRY = NullRegistry()
