"""The benchmark's three workloads and the checks on their outputs.

A workload *unit* is one call into the public entry points of
:mod:`repro.fleet` or :mod:`repro.faults`, serial (``workers=1``), with
the benchmark seed passed as ``root_seed``.  An *operation* is one
evaluated fleet cell or one arm of one fault point.  It fails if it
raises or breaks its output check: conservation (admitted = completed +
failed + shed, nothing left in flight), finite metrics, and the same
fingerprint on every repeat of the unit inside one invocation.
Requests the *model* fails (the baseline fault arms) are simulated
outcomes, not failed operations.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.faults import experiment as faults_experiment
from repro.fleet import fleet as fleet_module
from repro.fleet.experiment import e13_config
from repro.units import HOUR

#: fleet-e13 keeps E13's cell geometry (rate scale 35, 300 s epochs, so
#: cells of 1.1k-3.7k requests on 8-18 replicas) over two epochs
#: instead of six, so that one invocation fits two repeats.
E13_HORIZON_S = 600.0

#: fleet-des: the E13 tenants, planner and MRM placement with every cell
#: forced to the DES, sized down to one 300 s epoch at rate scale 4.
DES_RATE_SCALE = 4.0
DES_HORIZON_S = 300.0

#: faults: the R2 chaos points (three engines, 600 requests over 150 s
#: at each strike rate) and two R1 controller points (8 h, 10 s steps).
CHAOS_REQUESTS = 600
CHAOS_HORIZON_S = 150.0
CONTROLLER_MULTIPLIERS = (1000.0, 16000.0)
CONTROLLER_DURATION_S = 8 * HOUR
CONTROLLER_STEP_S = 10.0


def fleet_e13_config(tiny: bool = False):
    """The E13 least-loaded arm (tiny: the E13 golden grid)."""
    if tiny:
        return e13_config(tiny=True)
    return replace(e13_config(), horizon_s=E13_HORIZON_S)


def fleet_des_config(tiny: bool = False):
    """fleet-e13's tenants and planner, every cell on the DES."""
    if tiny:
        return replace(e13_config(tiny=True), mode="des")
    return replace(
        e13_config(),
        rate_scale=DES_RATE_SCALE,
        horizon_s=DES_HORIZON_S,
        mode="des",
    )


def faults_config(tiny: bool = False) -> Dict[str, List[dict]]:
    """Chaos and controller point lists (tiny: the stock tiny grids)."""
    if tiny:
        return {
            "chaos": faults_experiment.chaos_grid(tiny=True),
            "controller": faults_experiment.controller_grid(tiny=True),
        }
    return {
        "chaos": [
            {
                "strike_rate_per_hour": rate,
                "num_requests": CHAOS_REQUESTS,
                "horizon_s": CHAOS_HORIZON_S,
            }
            for rate in faults_experiment.CHAOS_STRIKE_RATES_PER_HOUR
        ],
        "controller": [
            {
                "rate_multiplier": multiplier,
                "duration_s": CONTROLLER_DURATION_S,
                "step_s": CONTROLLER_STEP_S,
            }
            for multiplier in CONTROLLER_MULTIPLIERS
        ],
    }


# ----------------------------------------------------------------------
# Fingerprints and checks
# ----------------------------------------------------------------------
def json_default(value: Any) -> Any:
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if hasattr(value, "value"):  # enum
        return value.value
    raise TypeError(f"cannot fingerprint {type(value).__name__}")


def fingerprint(value: Any) -> str:
    """SHA-256 of ``value`` as canonical JSON (sorted keys, exact floats)."""
    text = json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=json_default
    )
    return hashlib.sha256(text.encode()).hexdigest()


def non_finite(value: Any, path: str = "") -> List[str]:
    """Paths of every NaN or infinite number inside ``value``."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return []
    if isinstance(value, dict):
        found: List[str] = []
        for key in sorted(value, key=str):
            found.extend(non_finite(value[key], f"{path}.{key}"))
        return found
    if isinstance(value, (list, tuple)):
        found = []
        for index, item in enumerate(value):
            found.extend(non_finite(item, f"{path}[{index}]"))
        return found
    if isinstance(value, (int, float)) or hasattr(value, "item"):
        return [] if math.isfinite(float(value)) else [path or "value"]
    return []


@dataclass
class Operation:
    """One checked operation of a unit."""

    key: str
    fingerprint: str
    problems: List[str] = field(default_factory=list)


@dataclass
class UnitResult:
    """What one workload unit produced, with its checks applied."""

    result: Any
    fingerprint: str
    operations: List[Operation]
    #: Simulated requests the unit evaluated.
    requests: int
    #: Result-level check failures (not tied to one operation).
    problems: List[str]
    #: Lowest served fraction; see :func:`fleet_availability_min` and
    #: :func:`mitigated_availability_min`.
    availability_min: float
    #: The fleet cell rows, in evaluation order (empty for faults).
    cells: List[dict] = field(default_factory=list)


# ----------------------------------------------------------------------
# Fleet units
# ----------------------------------------------------------------------
@contextmanager
def captured_cells() -> Iterator[List[dict]]:
    """Collect every cell row ``run_fleet`` evaluates.

    ``run_fleet`` looks ``fleet_cell_point`` up in its module at call
    time, so rebinding that name sees each row without changing it.
    """
    rows: List[dict] = []
    original = fleet_module.fleet_cell_point

    def capture(point, seed):
        row = original(point, seed)
        rows.append(row)
        return row

    fleet_module.fleet_cell_point = capture
    try:
        yield rows
    finally:
        fleet_module.fleet_cell_point = original


def cell_problems(row: dict) -> List[str]:
    problems = []
    in_flight = (
        row["admitted"] - row["requests_completed"] - row["requests_failed"]
    )
    if in_flight != 0:
        problems.append(f"conservation: {in_flight} requests in flight")
    problems.extend(f"non-finite {path}" for path in non_finite(row))
    return problems


def _fleet_problems(result: dict, rows: List[dict]) -> List[str]:
    problems = []
    for name, table in sorted(result["tenants"].items()):
        # ``in_flight`` is routed - completed - failed.
        if table["admitted"] != table["routed"] + table["shed_total"]:
            problems.append(f"{name}: admitted != routed + shed")
        if table["in_flight"] != 0:
            problems.append(f"{name}: {table['in_flight']} in flight")
    if result["totals"]["num_cells"] != len(rows):
        problems.append("cell count disagrees with the rows evaluated")
    problems.extend(f"non-finite {path}" for path in non_finite(result))
    return problems


def fleet_availability_min(result: dict) -> float:
    """Lowest per-tenant served fraction (completed / admitted).

    The fleet injects no faults, so there is no mitigated arm; this is
    1.0 unless the router sheds or a cell fails requests.
    """
    fractions = [
        table["requests_completed"] / table["admitted"]
        for _name, table in sorted(result["tenants"].items())
        if table["admitted"] > 0
    ]
    return min(fractions) if fractions else 1.0


def run_fleet_unit(config, seed: int) -> UnitResult:
    """One ``run_fleet`` call with every cell checked."""
    with captured_cells() as rows:
        result = fleet_module.run_fleet(config, root_seed=seed, workers=1)
    operations = [
        Operation(
            key=f"{row['tenant']}/c{row['cluster']}/e{row['epoch']}",
            fingerprint=fingerprint(row),
            problems=cell_problems(row),
        )
        for row in rows
    ]
    return UnitResult(
        result=result,
        fingerprint=fingerprint(result),
        operations=operations,
        requests=sum(row["admitted"] for row in rows),
        problems=_fleet_problems(result, rows),
        availability_min=fleet_availability_min(result),
        cells=rows,
    )


# ----------------------------------------------------------------------
# Fault units
# ----------------------------------------------------------------------
def _chaos_arm_problems(arm: dict, num_requests: int) -> List[str]:
    problems = []
    settled = (
        arm["requests_completed"]
        + arm["requests_failed"]
        + arm["requests_shed"]
    )
    if settled != num_requests:
        problems.append(
            f"conservation: {num_requests - settled} requests unsettled"
        )
    if not 0.0 <= arm["availability"] <= 1.0:
        problems.append("availability outside [0, 1]")
    problems.extend(f"non-finite {path}" for path in non_finite(arm))
    return problems


def _controller_arm_problems(arm: dict) -> List[str]:
    problems = []
    if not 0 <= arm["blocks_delivered"] <= arm["blocks_demanded"]:
        problems.append("conservation: delivered outside [0, demanded]")
    elif arm["blocks_demanded"] and (
        arm["availability"]
        != arm["blocks_delivered"] / arm["blocks_demanded"]
    ):
        problems.append("availability != delivered / demanded")
    problems.extend(f"non-finite {path}" for path in non_finite(arm))
    return problems


def mitigated_availability_min(chaos: List[dict]) -> float:
    """Lowest mitigated-arm availability over the struck chaos points.

    The controller points stay out of it: their schedules include
    device failures that no recovery ladder can undo, so their mitigated
    availability swings with the seed (the traced run reports it as
    ``core.controller.mitigated_availability_min``).
    """
    struck = [
        row["mitigated"]["availability"]
        for row in chaos
        if row["strike_rate_per_hour"] > 0
    ]
    return min(struck) if struck else 1.0


def run_faults_unit(config: Dict[str, List[dict]], seed: int) -> UnitResult:
    """The chaos sweep then the controller sweep, both arms checked."""
    chaos = faults_experiment.run_chaos_experiment(
        root_seed=seed, workers=1, points=config["chaos"]
    )
    controller = faults_experiment.run_controller_experiment(
        root_seed=seed, workers=1, points=config["controller"]
    )
    operations: List[Operation] = []
    requests = 0
    for point, row in zip(config["chaos"], chaos):
        num_requests = int(point.get("num_requests", 60))
        for arm in ("baseline", "mitigated"):
            operations.append(
                Operation(
                    key=f"chaos/{row['strike_rate_per_hour']:g}/{arm}",
                    fingerprint=fingerprint(
                        [row["timeline_fingerprint"], row[arm]]
                    ),
                    problems=_chaos_arm_problems(row[arm], num_requests),
                )
            )
            requests += num_requests
    for row in controller:
        for arm in ("baseline", "mitigated"):
            operations.append(
                Operation(
                    key=f"controller/{row['rate_multiplier']:g}/{arm}",
                    fingerprint=fingerprint(
                        [row["timeline_fingerprint"], row[arm]]
                    ),
                    problems=_controller_arm_problems(row[arm]),
                )
            )
    result = {"chaos": chaos, "controller": controller}
    return UnitResult(
        result=result,
        fingerprint=fingerprint(result),
        operations=operations,
        requests=requests,
        problems=[],
        availability_min=mitigated_availability_min(chaos),
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[bool], Any]
    run: Callable[[Any, int], UnitResult]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("fleet-e13", fleet_e13_config, run_fleet_unit),
        Workload("fleet-des", fleet_des_config, run_fleet_unit),
        Workload("faults", faults_config, run_faults_unit),
    )
}


def setup(name: str, tiny: bool = False) -> Tuple[Workload, Any]:
    """Build the workload's config and warm it up on its tiny variant.

    The warm-up runs every lazy import and first-call path the timed
    units take, so the timed region measures steady-state work only.
    """
    workload = WORKLOADS[name]
    config = workload.config(tiny)
    workload.run(workload.config(True), 0)
    return workload, config
