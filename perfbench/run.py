"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fleet-e13 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every ``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0``,
every ``per_layer`` metric with ``--trace 1``).  The lines before it
tag the run with host, commit and seed, and give each workload's result
fingerprint and the reference-cell table.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOAD_NAMES = ("fleet-e13", "fleet-des", "faults")

#: Every invocation repeats its unit at least this often: the repeat is
#: the determinism check, and two samples give a median.
MIN_UNITS = 2

#: Set-up samples per run: this process plus fresh child processes.
SETUP_CHILDREN = 2


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="run the tiny configs (self-tests and smoke runs)",
    )
    parser.add_argument(
        "--out", default=os.path.join(ROOT, ".perfbench-out"),
        help="directory for the DES reference cache, spans and results",
    )
    parser.add_argument(
        "--setup-only", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def _setup(args) -> Tuple[Any, Any]:
    """Imports, config and the first-call warm-up: what ``setup_s`` times."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads
    import reference  # noqa: F401 - part of what every run imports

    return workloads.setup(args.workload, tiny=args.tiny)


def _child_setup_s(args) -> float:
    """Set-up time of a fresh interpreter (imports are paid once per
    process, so repeating them needs a new one)."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--setup-only",
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=150,
        check=True,
    )
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def _host() -> Dict[str, Any]:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _git_sha():
    """The checkout's commit, or None outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _timed(run, config, seed) -> Tuple[Any, float, float]:
    gc.collect()
    wall = time.perf_counter()
    cpu = time.process_time()
    unit = run(config, seed)
    return unit, time.perf_counter() - wall, time.process_time() - cpu


def check_units(units) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over every unit's operations.

    An operation fails on its own check, or when its fingerprint differs
    from the same operation in the first unit.
    """
    first = units[0]
    attempted = failed = 0
    problems: List[str] = []
    for number, unit in enumerate(units):
        problems.extend(f"unit {number}: {p}" for p in unit.problems)
        if unit.fingerprint != first.fingerprint:
            problems.append(f"unit {number}: result fingerprint differs")
        if len(unit.operations) != len(first.operations):
            problems.append(f"unit {number}: operation count differs")
        for index, op in enumerate(unit.operations):
            attempted += 1
            bad = list(op.problems)
            if index < len(first.operations) and (
                op.key != first.operations[index].key
                or op.fingerprint != first.operations[index].fingerprint
            ):
                bad.append("fingerprint differs from the first unit")
            if bad:
                failed += 1
                problems.extend(f"unit {number} {op.key}: {p}" for p in bad)
    return attempted, failed, problems


def _emit(values: Dict[str, float], section: str) -> Dict[str, Dict[str, Any]]:
    """Attach units from BENCHMARK.json; every named metric must be there."""
    with open(SPEC) as handle:
        spec = json.load(handle)[section]
    names = [entry["name"] for entry in spec]
    if sorted(names) != sorted(values):
        raise RuntimeError(
            f"metrics {sorted(values)} do not match {section} {sorted(names)}"
        )
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in spec
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator source at {SRC}", file=sys.stderr)
        return 2
    workload, config = _setup(args)
    own_setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0
    import reference
    import workloads

    # Timed region: repeat the unit until another one would overrun.  A
    # traced run only needs the untraced baseline for the overhead.
    units, walls, cpus = [], [], []
    attempted = failed = 0
    problems: List[str] = []
    while True:
        try:
            unit, wall, cpu = _timed(workload.run, config, args.seed)
        except Exception:  # the program failed: report it, keep results
            traceback.print_exc()
            attempted += 1
            failed += 1
            problems.append(f"unit {len(units)} raised")
            break
        units.append(unit)
        walls.append(wall)
        cpus.append(cpu)
        if len(units) >= MIN_UNITS and (
            args.trace or sum(walls) + statistics.median(walls) > args.seconds
        ):
            break
    if not units:
        print("error: no unit of the workload completed", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    wall_s = statistics.median(walls)

    os.makedirs(args.out, exist_ok=True)
    source = reference.source_digest(SRC)
    table: List[Dict[str, Any]] = []
    if args.trace:
        import tracing
        from repro.obs import MetricsRegistry

        spans = tracing.Spans()
        registry = MetricsRegistry()
        with tracing.traced(spans, registry):
            traced_unit, traced_wall, _cpu = _timed(
                workload.run, config, args.seed
            )
        profiled_unit, shares = tracing.profile(
            lambda: workload.run(config, args.seed), SRC
        )
        units.extend([traced_unit, profiled_unit])
        values = tracing.layer_metrics(
            spans.spans,
            registry.counter("sim.events_total").value,
            traced_unit.result,
            traced_unit.cells,
        )
        values.update(
            {f"{group}.self_share": share for group, share in shares.items()}
        )
        values["trace.overhead_s"] = traced_wall - wall_s
        spans_path = os.path.join(
            args.out, f"spans-{args.workload}-seed{args.seed}.json"
        )
        with open(spans_path, "w") as handle:
            json.dump(spans.spans, handle)
        section = "per_layer"
    else:
        values = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(cpus),
            "sim_requests_per_host_s": statistics.median(
                unit.requests / wall for unit, wall in zip(units, walls)
            ),
            "setup_s": statistics.median(
                [own_setup_s]
                + [_child_setup_s(args) for _ in range(SETUP_CHILDREN)]
            ),
            "peak_rss_mb": peak_rss_mb,
            "mitigated_availability_min": min(
                unit.availability_min for unit in units
            ),
        }
        errors, table, operations = reference.accuracy(
            workloads.fleet_e13_config(args.tiny), source, args.out
        )
        attempted += len(operations)
        for op in operations:
            if op.problems:
                failed += 1
                problems.extend(f"{op.key}: {p}" for p in op.problems)
        values.update(errors)
        section = "end_to_end"

    unit_attempted, unit_failed, unit_problems = check_units(units)
    attempted += unit_attempted
    failed += unit_failed
    problems.extend(unit_problems)
    metrics = _emit(values, section)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "unit_wall_s": walls,
        "fingerprint": units[0].fingerprint,
        "host": _host(),
        "git_sha": _git_sha(),
        "source_sha256": source,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(args.out, "results.jsonl"), "a") as handle:
        handle.write(json.dumps(record) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} units={len(walls)}")
    print("unit wall_s: " + " ".join(f"{wall:.4f}" for wall in walls))
    print(f"host: {json.dumps(record['host'])}")
    print(f"git_sha: {record['git_sha']}  source_sha256: {record['source_sha256']}")
    print(f"fingerprint: {record['fingerprint']}")
    for row in table:
        print(
            f"reference {row['tenant']:>6} {row['memory']} "
            f"{row['replicas']:>3} replicas {row['requests']:>5} requests: "
            f"ttft_p99 {row['analytic_ttft_p99_err']:.4f} "
            f"board_energy {row['analytic_board_energy_err']:.4f} "
            f"slo_miss {row['analytic_slo_miss_err']:.4f}"
        )
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"operations: {attempted} attempted, {failed} failed")
    for name, metric in metrics.items():
        print(f"{name:40} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
