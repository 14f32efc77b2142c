"""The DES reference sample behind the ``analytic_*_err`` metrics.

The sample is fixed: for each tenant, the cell with the most routed
requests in the fleet-e13 scenario at :data:`REFERENCE_SEED`.  Which
cells those are depends only on the traces and routing, never on the
evaluator, so a change to the analytic replay is scored on the same
cells as its parent.  Each cell runs through ``fleet_cell_point`` twice,
once with ``mode="des"`` and once with ``mode="analytic"``.

The DES half is deterministic and costs tens of seconds, so it is kept
in the output directory under a key that hashes the simulator source
and the scenario; any edit under ``src/repro`` recomputes it.  The
analytic half is recomputed on every run.  Both run outside the timed
region.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Tuple

from repro.fleet import fleet as fleet_module
from workloads import Operation, cell_problems, fingerprint, json_default

#: Seed of the fleet-e13 traces the sample is drawn from, whatever the
#: benchmark seed: the accuracy metrics then compare like with like.
REFERENCE_SEED = 0

#: Bump when the cached file's layout changes.
CACHE_VERSION = 1


def source_digest(src_dir: str) -> str:
    """SHA-256 over every ``.py`` file under ``src_dir/repro``."""
    digest = hashlib.sha256()
    package = os.path.join(src_dir, "repro")
    paths = []
    for directory, _dirs, files in os.walk(package):
        paths.extend(
            os.path.join(directory, name)
            for name in files
            if name.endswith(".py")
        )
    for path in sorted(paths):
        digest.update(os.path.relpath(path, src_dir).encode())
        digest.update(b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    return digest.hexdigest()


def reference_points(config) -> List[dict]:
    """The largest cell per tenant (grid order breaks ties)."""
    points, _context = fleet_module.build_cells(
        config, root_seed=REFERENCE_SEED
    )
    largest: Dict[str, dict] = {}
    for point in points:
        best = largest.get(point["tenant"])
        if best is None or len(point["records"]) > len(best["records"]):
            largest[point["tenant"]] = point
    return list(largest.values())


def des_reference(
    config, source: str, out_dir: str
) -> Tuple[List[dict], List[dict], bool]:
    """``(points, des_rows, computed)``, from the cache when it matches."""
    key = fingerprint([CACHE_VERSION, source, repr(config), REFERENCE_SEED])
    path = os.path.join(out_dir, f"reference-{key[:16]}.json")
    if os.path.exists(path):
        with open(path) as handle:
            cached = json.load(handle)
        if cached.get("key") == key:
            return cached["points"], cached["des"], False
    points = reference_points(config)
    rows = [
        fleet_module.fleet_cell_point(dict(point, mode="des"), None)
        for point in points
    ]
    # Round-trip through JSON so a fresh sample and a cached one hand
    # the analytic side identical inputs.
    payload = json.loads(
        json.dumps({"key": key, "points": points, "des": rows}, default=json_default)
    )
    os.makedirs(out_dir, exist_ok=True)
    scratch = f"{path}.{os.getpid()}.tmp"
    with open(scratch, "w") as handle:
        json.dump(payload, handle)
    os.replace(scratch, path)
    return payload["points"], payload["des"], True


def relative_error(reference: float, candidate: float) -> float:
    if reference == candidate:
        return 0.0
    return abs(candidate - reference) / abs(reference)


def slo_miss_error(des: dict, analytic: dict) -> float:
    """Largest relative error of the per-class SLO miss rate.

    The denominator is floored at one request of the class, so a class
    the DES never misses still gives a finite error.
    """
    worst = 0.0
    for sla, attained in sorted(des["sla_attainment"].items()):
        count = des["sla_admitted"].get(sla, 0)
        if count == 0:
            continue
        des_miss = 1.0 - attained
        analytic_miss = 1.0 - analytic["sla_attainment"].get(sla, 1.0)
        error = abs(analytic_miss - des_miss) / max(des_miss, 1.0 / count)
        worst = max(worst, error)
    return worst


def accuracy(
    config, source: str, out_dir: str
) -> Tuple[Dict[str, float], List[Dict[str, Any]], List[Operation]]:
    """The three ``analytic_*_err`` metrics, a per-cell table, and the
    operations evaluated (analytic always, DES when not cached)."""
    points, des_rows, computed = des_reference(config, source, out_dir)
    operations: List[Operation] = []
    table: List[Dict[str, Any]] = []
    metrics = {
        "analytic_ttft_p99_err": 0.0,
        "analytic_board_energy_err": 0.0,
        "analytic_slo_miss_err": 0.0,
    }
    for point, des in zip(points, des_rows):
        key = f"reference/{point['tenant']}"
        if computed:
            operations.append(
                Operation(f"{key}/des", fingerprint(des), cell_problems(des))
            )
        analytic = fleet_module.fleet_cell_point(
            dict(point, mode="analytic"), None
        )
        operations.append(
            Operation(
                f"{key}/analytic",
                fingerprint(analytic),
                cell_problems(analytic),
            )
        )
        errors = {
            "analytic_ttft_p99_err": relative_error(
                des["ttft_p99_s"], analytic["ttft_p99_s"]
            ),
            "analytic_board_energy_err": relative_error(
                des["board_energy_j"], analytic["board_energy_j"]
            ),
            "analytic_slo_miss_err": slo_miss_error(des, analytic),
        }
        for name, value in errors.items():
            metrics[name] = max(metrics[name], value)
        table.append(
            {
                "tenant": point["tenant"],
                "memory": point["memory"],
                "replicas": point["replicas"],
                "requests": len(point["records"]),
                **errors,
            }
        )
    return metrics, table, operations
