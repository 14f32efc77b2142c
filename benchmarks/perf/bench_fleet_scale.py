"""Perf benchmarks for the fleet layer: scale, speedup, determinism.

Appends a ``fleet`` section to the ``BENCH_sim.json`` run entry:

- ``e13`` — the E13 headline arm (least-loaded routing) at full scale:
  simulated users/day admitted, wall-clock seconds per simulated hour,
  cell counts by evaluator, and the per-tenant SLO-attainment and MRM
  endurance-burn tables the acceptance criteria ask for.  The non-tiny
  run asserts the ≥1M simulated users/day floor across ≥4 clusters and
  ≥3 tenants.
- ``modes`` — analytic-vs-DES wall-clock on a fleet small enough that
  both evaluators are supported, with an exact result-count
  cross-check (the analytic arm must serve the same requests).
- ``identity`` — the serial vs ``workers=4`` bit-identity check on the
  merged obs snapshot (the determinism contract, asserted here so the
  perf artifact also witnesses it).
- ``e13.analytic_size_exponent`` — the n-scaling guard: one E13 cell
  evaluated analytically at growing request counts, with fixed replicas
  and per-replica load.  The non-tiny run asserts the log-log slope of
  host time against size stays at or below
  :data:`MAX_ANALYTIC_SIZE_EXPONENT`, so a superlinear term in the
  evaluator fails here rather than hiding behind small cells.
- ``e13.des_size_exponent`` — the same guard for the DES: the same cell
  on the discrete-event simulator, asserted at or below
  :data:`MAX_DES_SIZE_EXPONENT` on non-tiny runs.

Set ``REPRO_PERF_TINY=1`` for the CI smoke variant: same code paths and
assertions except the absolute-scale floor and the slope bound.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np

from repro.fleet import FleetConfig, run_fleet
from repro.fleet.experiment import e13_config
from repro.fleet.fleet import build_cells, fleet_cell_point
from repro.obs import canonical_json

TINY = os.environ.get("REPRO_PERF_TINY") == "1"

#: Request counts of the n-scaling guard.  Below ~4k requests an O(n²)
#: evaluator stage still hides behind the linear ones: a quadratic JSQ
#: replay read a slope of 1.25 over 250-3.7k requests, under the bound,
#: but 1.44 over these sizes (2-vCPU Xeon), so the full run keeps the
#: large sizes.
ANALYTIC_SIZES = (
    (250, 500, 1_000) if TINY else (1_000, 2_000, 4_000, 8_000, 16_000)
)

#: Ceiling on the analytic evaluator's log-log size slope (the heap
#: replay reads ~0.96-1.02 over these sizes; a pure n² stage reads 2).
MAX_ANALYTIC_SIZE_EXPONENT = 1.3

#: Request counts of the DES size guard: the DES costs ~0.6 ms per
#: request on this cell (2-vCPU Xeon), so 8k requests take ~5 s.
DES_SIZES = (250, 500, 1_000) if TINY else (1_000, 2_000, 4_000, 8_000)

#: Ceiling on the DES's log-log size slope over :data:`DES_SIZES`
#: (reads ~0.96-1.04; per-request work is flat, so n² shows as ~2).
MAX_DES_SIZE_EXPONENT = 1.3


def _small_fleet(mode):
    return FleetConfig(
        horizon_s=120.0, epoch_s=60.0, num_clusters=2, mode=mode
    )


def test_e13_scale(bench_record):
    config = e13_config(tiny=TINY)
    t0 = time.perf_counter()
    result = run_fleet(config, root_seed=0)
    wall_s = time.perf_counter() - t0

    totals = result["totals"]
    sim_hours = config.horizon_s / 3600.0
    tables = {
        tenant: {
            "users_per_day": entry["users_per_day"],
            "sla_attainment": {
                sla: float(value)
                for sla, value in sorted(entry["sla_attainment"].items())
            },
            "ttft_p99_worst_cell_s": entry["ttft_p99_worst_cell_s"],
            "mrm_replica_epochs": entry["mrm_replica_epochs"],
            "mrm_bytes_written": entry["mrm_bytes_written"],
            "mrm_endurance_burn_per_day": entry[
                "mrm_endurance_burn_per_day"
            ],
        }
        for tenant, entry in result["tenants"].items()
    }
    bench_record.setdefault("fleet_e13", {}).update({
        "num_clusters": config.num_clusters,
        "num_tenants": len(config.tenants),
        "horizon_s": config.horizon_s,
        "users_per_day": totals["users_per_day"],
        "requests_admitted": totals["admitted"],
        "requests_shed": totals["shed"],
        "wall_s": wall_s,
        "wall_s_per_sim_hour": wall_s / sim_hours,
        "cells": totals["num_cells"],
        "cells_analytic": totals["cells_analytic"],
        "cells_des": totals["cells_des"],
        "tenants": tables,
    })

    assert config.num_clusters >= 4
    assert len(config.tenants) >= 3
    if not TINY:
        # The acceptance headline: a million simulated users a day.
        assert totals["users_per_day"] >= 1_000_000


def _repeated_cell(point, size, epoch_s, mode="analytic"):
    """``point`` grown to ``size`` requests by appending copies of its
    records shifted by one epoch each: same replicas, same arrival rate,
    evaluated in ``mode``."""
    records = []
    shift = 0.0
    while len(records) < size:
        records.extend(
            (arrival + shift, prompt, output, sla)
            for arrival, prompt, output, sla in point["records"]
        )
        shift += epoch_s
    return dict(point, mode=mode, records=tuple(records[:size]))


def _chat_reference_cell():
    """The largest chat cell of two E13 epochs at seed 0 (18 replicas,
    ~3.7k requests, MRM placement), and the epoch length."""
    config = replace(e13_config(), horizon_s=2 * e13_config().epoch_s)
    points, _context = build_cells(config, root_seed=0)
    base = max(
        (point for point in points if point["tenant"] == "chat"),
        key=lambda point: len(point["records"]),
    )
    return base, config.epoch_s


def _size_exponent(sizes, seconds):
    """Log-log slope of host time against request count."""
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])


def test_analytic_size_scaling(bench_record):
    base, epoch_s = _chat_reference_cell()
    seconds = []
    for size in ANALYTIC_SIZES:
        point = _repeated_cell(base, size, epoch_s)
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            row = fleet_cell_point(point, None)
            best = min(best, time.perf_counter() - t0)
        assert row["mode"] == "analytic"
        assert row["requests_completed"] == size
        seconds.append(best)
    exponent = _size_exponent(ANALYTIC_SIZES, seconds)
    bench_record.setdefault("fleet_e13", {}).update({
        "analytic_replicas": base["replicas"],
        "analytic_size_seconds": dict(zip(map(str, ANALYTIC_SIZES), seconds)),
        "analytic_size_exponent": exponent,
    })
    if not TINY:
        assert exponent <= MAX_ANALYTIC_SIZE_EXPONENT, (
            dict(zip(ANALYTIC_SIZES, seconds))
        )


def test_des_size_scaling(bench_record):
    # The analytic guard's cell on the DES: one run per size, since the
    # DES does no more per request at 8k requests than at 1k.
    base, epoch_s = _chat_reference_cell()
    seconds = []
    for size in DES_SIZES:
        point = _repeated_cell(base, size, epoch_s, mode="des")
        t0 = time.perf_counter()
        row = fleet_cell_point(point, None)
        seconds.append(time.perf_counter() - t0)
        assert row["mode"] == "des"
        assert row["requests_completed"] == size
    exponent = _size_exponent(DES_SIZES, seconds)
    bench_record.setdefault("fleet_e13", {}).update({
        "des_size_seconds": dict(zip(map(str, DES_SIZES), seconds)),
        "des_size_exponent": exponent,
    })
    if not TINY:
        assert exponent <= MAX_DES_SIZE_EXPONENT, dict(zip(DES_SIZES, seconds))


def test_analytic_vs_des_modes(bench_record):
    t0 = time.perf_counter()
    des = run_fleet(_small_fleet("des"), root_seed=3)
    des_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    auto = run_fleet(_small_fleet("auto"), root_seed=3)
    auto_wall = time.perf_counter() - t0

    # Same traces, same routing, same cells: counts must agree exactly.
    assert (
        des["totals"]["requests_completed"]
        == auto["totals"]["requests_completed"]
    )
    assert (
        des["totals"]["tokens_generated"]
        == auto["totals"]["tokens_generated"]
    )
    assert des["totals"]["cells_des"] == des["totals"]["num_cells"]

    bench_record["fleet_modes"] = {
        "des_wall_s": des_wall,
        "analytic_wall_s": auto_wall,
        "speedup": des_wall / auto_wall if auto_wall > 0 else None,
        "cells_analytic": auto["totals"]["cells_analytic"],
        "cells": auto["totals"]["num_cells"],
    }


def test_serial_vs_workers_identity(bench_record):
    config = e13_config(tiny=True)
    serial = canonical_json(
        run_fleet(config, root_seed=0, workers=1)["obs"]
    )
    parallel = canonical_json(
        run_fleet(config, root_seed=0, workers=4)["obs"]
    )
    assert serial == parallel
    bench_record["fleet_identity"] = {"serial_equals_workers4": True}
