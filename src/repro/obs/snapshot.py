"""Snapshot schema: versioned, sorted-key, mergeable metric dumps.

A snapshot is a plain dict (JSON-ready, picklable across sweep
workers)::

    {
        "schema": "repro.obs/1",
        "counters":   {"name{k=v}": float, ...},
        "gauges":     {"name{k=v}": float, ...},
        "histograms": {"name{k=v}": {"count": int, "sum": float,
                                     "min": float|None, "max": float|None,
                                     "p50": float|None, "p90": float|None,
                                     "p99": float|None}, ...},
        "info":       {"name{k=v}": str, ...},
    }

Merge semantics are commutative and order-fixed (sweep results are
reduced in grid order, but the operations themselves are insensitive to
it): counters and gauges sum; histogram *moments* (count/sum/min/max)
merge exactly while quantiles — not mergeable from summaries — become
``None``; info is first-value-wins with a ``!conflict`` marker appended
when workers disagree, so a disagreement is visible instead of silent.

Golden files are written through :func:`normalize_snapshot` (floats
rounded to 12 significant digits) + :func:`canonical_json` (sorted
keys, fixed separators) so diffs are reviewable and platform-stable.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Dict, Iterable, List

from repro.obs.registry import HISTOGRAM_QUANTILES, format_metric_name, parse_metric_name

#: Version tag every snapshot carries; bump on shape changes.
SNAPSHOT_SCHEMA = "repro.obs/1"

_SECTIONS = ("counters", "gauges", "histograms", "info")


def empty_snapshot() -> Dict[str, object]:
    """A fresh snapshot with the current schema tag and empty sections."""
    snap: Dict[str, object] = {"schema": SNAPSHOT_SCHEMA}
    for section in _SECTIONS:
        snap[section] = {}
    return snap


def _check_schema(snap: Dict[str, object]) -> None:
    schema = snap.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"snapshot schema {schema!r} is not {SNAPSHOT_SCHEMA!r}; "
            "regenerate the snapshot (or migrate it) before use"
        )


def merge_snapshots(snapshots: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Reduce worker snapshots into one fleet-wide snapshot.

    Commutative: counters/gauges sum, histogram moments merge exactly
    (quantiles become ``None``), info is first-value-wins with an
    explicit conflict marker.  Safe for the ``repro.parallel`` sweep
    reduction — serial and parallel runs produce identical results
    because the reduction is applied in grid order either way.

    Each key is summed over the snapshots in the order given, so the
    merged floats depend on that order and never on the order of keys
    within a snapshot.  The per-snapshot sections are still visited in
    sorted key order: that order never enters a sum, but it lets the
    order-sensitive float reduction rule (RL016) see the ``counters``
    and ``gauges`` loops as deterministic.
    """
    merged = empty_snapshot()
    counters: Dict[str, float] = merged["counters"]  # type: ignore[assignment]
    gauges: Dict[str, float] = merged["gauges"]  # type: ignore[assignment]
    histograms: Dict[str, Dict[str, object]] = merged["histograms"]  # type: ignore[assignment]
    info: Dict[str, str] = merged["info"]  # type: ignore[assignment]

    for snap in snapshots:
        _check_schema(snap)
        for name, value in sorted(snap.get("counters", {}).items()):
            counters[name] = counters.get(name, 0.0) + value
        for name, value in sorted(snap.get("gauges", {}).items()):
            gauges[name] = gauges.get(name, 0.0) + value
        for name, summary in sorted(snap.get("histograms", {}).items()):
            have = histograms.get(name)
            if have is None:
                merged_summary: Dict[str, object] = {
                    "count": summary["count"],
                    "sum": summary["sum"],
                    "min": summary["min"],
                    "max": summary["max"],
                }
            else:
                mins = [v for v in (have["min"], summary["min"]) if v is not None]
                maxs = [v for v in (have["max"], summary["max"]) if v is not None]
                merged_summary = {
                    "count": have["count"] + summary["count"],
                    "sum": have["sum"] + summary["sum"],
                    "min": min(mins) if mins else None,
                    "max": max(maxs) if maxs else None,
                }
            # Quantiles are not mergeable from summaries; make that
            # explicit rather than report a wrong number.
            for q in HISTOGRAM_QUANTILES:
                merged_summary[f"p{int(q * 100)}"] = None
            histograms[name] = merged_summary
        for name, value in sorted(snap.get("info", {}).items()):
            if name not in info:
                info[name] = value
            elif info[name] != value and not info[name].endswith("!conflict"):
                info[name] = f"{info[name]}!conflict"

    # Re-sort every section so merged output is key-ordered like
    # registry snapshots.
    for section in _SECTIONS:
        merged[section] = {k: merged[section][k] for k in sorted(merged[section])}  # type: ignore[index]
    return merged


def relabel_snapshot(snap: Dict[str, object], **labels: object) -> Dict[str, object]:
    """A copy of ``snap`` with ``labels`` merged into every metric name.

    Used to tag per-arm registries (``arm=baseline`` / ``arm=mitigated``)
    before merging them into one experiment snapshot.  A key collision
    with an existing label is an error, keeping provenance unambiguous.
    """
    _check_schema(snap)
    out = empty_snapshot()
    for section in _SECTIONS:
        dst: Dict[str, object] = out[section]  # type: ignore[assignment]
        for full, value in snap.get(section, {}).items():
            name, have = parse_metric_name(full)
            overlap = set(have).intersection(labels)
            if overlap:
                raise ValueError(
                    f"metric {full!r} already carries label(s) {sorted(overlap)}"
                )
            have.update({k: str(v) for k, v in labels.items()})
            dst[format_metric_name(name, have)] = value
        out[section] = {k: dst[k] for k in sorted(dst)}
    return out


def diff_snapshots(
    a: Dict[str, object], b: Dict[str, object]
) -> List[Dict[str, object]]:
    """Flat, sorted list of differences between two snapshots.

    Each entry: ``{"section", "metric", "a", "b"}`` where a missing
    metric reports ``None`` on its side.  Histogram summaries diff
    field-wise (``metric`` becomes ``name.field``).  Empty list means
    the snapshots are identical up to key order.
    """
    _check_schema(a)
    _check_schema(b)
    out: List[Dict[str, object]] = []
    for section in _SECTIONS:
        sa: Dict[str, object] = a.get(section, {})  # type: ignore[assignment]
        sb: Dict[str, object] = b.get(section, {})  # type: ignore[assignment]
        for name in sorted(set(sa) | set(sb)):
            va, vb = sa.get(name), sb.get(name)
            if section == "histograms" and va is not None and vb is not None:
                for fld in sorted(set(va) | set(vb)):
                    fa, fb = va.get(fld), vb.get(fld)
                    if fa != fb:
                        out.append(
                            {"section": section, "metric": f"{name}.{fld}", "a": fa, "b": fb}
                        )
            elif va != vb:
                out.append({"section": section, "metric": name, "a": va, "b": vb})
    return out


def _round_sig(value: float, sig_digits: int) -> float:
    if value == 0 or not math.isfinite(value):
        return value
    return round(value, sig_digits - 1 - int(math.floor(math.log10(abs(value)))))


#: Significant digits :func:`normalize_snapshot` keeps.
SIG_DIGITS = 12


def normalize_snapshot(snap: Dict[str, object]) -> Dict[str, object]:
    """A golden-file-ready copy: floats rounded to :data:`SIG_DIGITS`
    significant digits, sections sorted.  Rounding absorbs last-ulp
    platform noise while still failing loudly on any real (single-count)
    perturbation."""
    _check_schema(snap)

    def norm(value: object) -> object:
        if isinstance(value, float):
            return _round_sig(value, SIG_DIGITS)
        return value

    out = empty_snapshot()
    for section in _SECTIONS:
        dst: Dict[str, object] = out[section]  # type: ignore[assignment]
        for name in sorted(snap.get(section, {})):
            value = snap[section][name]  # type: ignore[index]
            if isinstance(value, dict):
                dst[name] = {k: norm(value[k]) for k in sorted(value)}
            else:
                dst[name] = norm(value)
    return out


def canonical_json(snap: Dict[str, object]) -> str:
    """Deterministic serialization: sorted keys, fixed separators,
    trailing newline (golden files diff cleanly in git)."""
    return json.dumps(snap, sort_keys=True, indent=2) + "\n"


def write_snapshot(path: str, snap: Dict[str, object]) -> str:
    """Atomically write ``snap`` as canonical JSON; returns ``path``."""
    _check_schema(snap)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(canonical_json(snap))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load_snapshot(path: str) -> Dict[str, object]:
    """Read a snapshot written by :func:`write_snapshot` (schema-checked)."""
    with open(path) as fh:
        snap = json.load(fh)
    _check_schema(snap)
    return snap
