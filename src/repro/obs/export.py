"""Exporters: Prometheus-style text dumps and JSON-lines traces.

Both formats are deterministic renderings of already-deterministic
inputs (sorted metric names, sequential span ids), so exported files —
like the snapshots they derive from — are a pure function of
(config, seed) and safe to diff across runs.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Iterable, Optional, Union

from repro.obs.registry import MetricsRegistry, NullRegistry, parse_metric_name
from repro.obs.tracing import Span, Tracer

_Registryish = Union[MetricsRegistry, NullRegistry, Dict[str, object]]


def _as_snapshot(source: _Registryish) -> Dict[str, object]:
    if isinstance(source, dict):
        return source
    return source.snapshot()


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    parts = [f'{k}="{labels[k]}"' for k in sorted(labels)]
    return "{" + ",".join(parts) + "}"


def _prom_value(value: object) -> str:
    if value is None:
        return "NaN"
    return repr(float(value))


def prometheus_text(source: _Registryish) -> str:
    """Render a registry or snapshot in Prometheus exposition style.

    Histograms render as ``_count``/``_sum``/``_min``/``_max`` plus one
    ``{quantile="..."}`` series per reported quantile (``NaN`` where a
    quantile is unavailable, e.g. after a cross-worker merge).
    """
    snap = _as_snapshot(source)
    lines = []
    typed = set()

    def declare(name: str, kind: str) -> None:
        # One TYPE line per metric family: labeled series of the same
        # name share a single declaration (exposition-format rule).
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for full, value in snap.get("counters", {}).items():
        name, labels = parse_metric_name(full)
        declare(name, "counter")
        lines.append(f"{name}{_prom_labels(labels)} {_prom_value(value)}")
    for full, value in snap.get("gauges", {}).items():
        name, labels = parse_metric_name(full)
        declare(name, "gauge")
        lines.append(f"{name}{_prom_labels(labels)} {_prom_value(value)}")
    for full, summary in snap.get("histograms", {}).items():
        name, labels = parse_metric_name(full)
        declare(name, "summary")
        base = _prom_labels(labels)
        lines.append(f"{name}_count{base} {summary.get('count', 0)}")
        lines.append(f"{name}_sum{base} {_prom_value(summary.get('sum', 0.0))}")
        lines.append(f"{name}_min{base} {_prom_value(summary.get('min'))}")
        lines.append(f"{name}_max{base} {_prom_value(summary.get('max'))}")
        for key in sorted(summary):
            if key.startswith("p") and key[1:].isdigit():
                q = int(key[1:]) / 100.0
                qlabels = dict(labels)
                qlabels["quantile"] = f"{q:g}"
                lines.append(
                    f"{name}{_prom_labels(qlabels)} {_prom_value(summary[key])}"
                )
    for full, value in snap.get("info", {}).items():
        name, labels = parse_metric_name(full)
        ilabels = dict(labels)
        ilabels["value"] = str(value)
        declare(name, "info")
        lines.append(f"{name}{_prom_labels(ilabels)} 1")
    return "\n".join(lines) + ("\n" if lines else "")


def _atomic_write(path: str, text: str) -> str:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_prometheus(path: str, source: _Registryish) -> str:
    """Atomically write the Prometheus text dump; returns ``path``."""
    return _atomic_write(path, prometheus_text(source))


def write_trace_jsonl(
    path: str,
    tracer: Union[Tracer, Iterable[Span]],
    meta: Optional[Dict[str, object]] = None,
) -> str:
    """Write spans as JSON lines (one record per span, sorted keys).

    The first line is a header record (``{"trace_schema": ...}`` plus
    any caller ``meta``) so trace files are self-describing.  Spans are
    emitted in span-id order — the order they were opened in simulated
    time — making serial and parallel runs byte-identical.
    """
    spans = tracer.spans if hasattr(tracer, "spans") else list(tracer)
    header: Dict[str, object] = {"trace_schema": "repro.obs.trace/1"}
    if meta:
        header.update(meta)
    lines = [json.dumps(header, sort_keys=True)]
    for span in sorted(spans, key=lambda s: s.span_id):
        lines.append(json.dumps(span.to_record(), sort_keys=True))
    return _atomic_write(path, "\n".join(lines) + "\n")
