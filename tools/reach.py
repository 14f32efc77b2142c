#!/usr/bin/env python3
"""Which functions of ``src/repro`` the system reaches, and which only tests.

    python tools/reach.py

Runs tier-1 and every system entry point under a call tracer, each in a
child process of its own:

- the benchmark suite (tiny grids, no ``-x``; ``BENCH_sim.json`` is put
  back as it was);
- each CLI subcommand, with ``--metrics``/``--trace-out`` outputs and
  the ``obs`` inspectors over them, every flag of ``fig1``,
  ``tradeoff``, ``characterize``, ``trace``, ``faults`` and
  ``obs spans``, and ``python -m repro.lint``;
- the examples;
- the three perfbench workloads with ``--tiny --trace 1 --seconds 0``.

A function is every ``def`` under ``src/repro``, keyed on
``(co_filename, co_firstlineno, co_name)``; a decorated function's
first line is its first decorator's.  Never key on the code object:
code equality ignores the file name, so two files' same-named
properties with the same line and body would read as one.  Each
function is *system* (an entry point calls it), *tests-only* (only
tier-1 does) or *never*.  The script prints the three counts for the
functions outside ``lint/`` (every rule runs on every lint, so a call
trace cannot judge the linter) and lists the tests-only and never
functions by module.

:data:`KEEP` names the functions outside ``lint/`` that are tests-only
or never called on purpose, each with its reason.  The script exits 1
when such a function is missing from it, or when an entry of it names a
function that is gone or that the system now reaches.

The function list and a hash of every source file are taken before the
first traced run.  If a file under ``src/repro`` changes before the
last run ends, the traced line numbers no longer match the list, so the
script names the changed files and exits 2 instead of reporting.

Forked sweep workers are not traced.  Every entry point runs serial
except one 2-worker fleet run, and the serial path calls the functions
the workers would.  Tier-1 runs without ``-x``; a child that exits
non-zero is reported, not fatal.  The whole run takes about five
minutes on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from typing import Dict, List, Sequence, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
LINT = os.path.join(PACKAGE, "lint") + os.sep
BENCH_RECORD = os.path.join(ROOT, "BENCH_sim.json")

Key = Tuple[str, int, str]

#: The tier-1 suite, as ``pyproject.toml``'s ``testpaths`` selects it.
TESTS = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]

_REFERENCE = "a reference the tests compare the system's path against"
_LADDER = "a fault-ladder step that other seeds and fault rates reach"
_QUEUE = "the event-queue contract the kernel tests pin"
_REPR = "debug repr"
_TESTED = "tier-1 tests exercise it; it goes only together with them"

#: Functions outside ``lint/`` that are tests-only or never called on
#: purpose, keyed on ``(module, qualified name)``, with the reason.
KEEP: Dict[Tuple[str, str], str] = {
    # References.
    ("repro.workload.phases", "decode_step_traffic_batch"): _REFERENCE,
    ("repro.fleet.arrivals", "diurnal_multiplier"): _REFERENCE,
    ("repro.ecc.hamming", "HammingCodec.encode"): _REFERENCE,
    ("repro.ecc.hamming", "HammingCodec.decode"): _REFERENCE,
    ("repro.ecc.hamming", "HammingCodec._extract"): _REFERENCE,
    ("repro.ecc.hamming", "HammingCodec.uncorrectable_probability"):
        "the SEC-DED prediction the codec's simulated decodes check",
    ("repro.core.retention", "RetentionModel.retention_at_temperature"):
        "the forward model the temperature-derating property test "
        "inverts required_retention_for_temperature against",
    ("repro.core.mrm", "MRMDevice.damage_of"):
        "read by the refresh scheduler's migrate check and by the "
        "wear-conservation property test",
    # The queue contract.
    ("repro.sim.events", "EventQueue.pop"): _QUEUE,
    ("repro.sim.events", "EventQueue.peek_time"): _QUEUE,
    ("repro.sim.events", "EventQueue.__len__"): _QUEUE,
    ("repro.sim.events", "EventQueue.__bool__"): _QUEUE,
    ("repro.sim.events", "EventQueue._ensure_front"): _QUEUE,
    ("repro.sim.kernel", "Simulator.pending_events"): _QUEUE,
    # Error and fault-ladder paths.
    ("repro.inference.resilience", "ResilientDispatcher._defer"): _LADDER,
    ("repro.inference.resilience", "ResilientDispatcher._redispatch_if"):
        _LADDER,
    ("repro.inference.resilience", "ResilientDispatcher._cancel_arms"):
        _LADDER,
    ("repro.inference.resilience", "ResilientDispatcher._retry_or_fail"):
        _LADDER,
    ("repro.faults.injector", "ControllerFaultInjector._apply_bank_failure"):
        _LADDER,
    ("repro.faults.injector",
     "ControllerFaultInjector._apply_device_failure"): _LADDER,
    ("repro.core.mrm", "MRMDevice.fail_bank"): _LADDER,
    ("repro.core.mrm", "MRMDevice.fail_device"): _LADDER,
    ("repro.core.controller", "MRMController.handle_bank_failure"): _LADDER,
    ("repro.core.controller", "MRMController._remap_zone"): _LADDER,
    ("repro.devices.base", "BankFailure.__init__"): _LADDER,
    ("repro.devices.base", "DeviceFailure.__init__"): _LADDER,
    ("repro.sim.process", "SimProcessError.__init__"):
        "raised when a simulation process fails",
    ("repro.inference.analytic", "_empty_report"):
        "the analytic report of an empty request list",
    # Vocabulary and interfaces.
    ("repro.sim.process", "Wait.__init__"):
        "the kernel's join command, which RL007 also knows",
    ("repro.sim.process", "Process.done"):
        "the completion event a Wait joins on",
    ("repro.obs.tracing", "Tracer.span"):
        "the scoped-span API that decision receipts build on",
    ("repro.obs.tracing", "Tracer.instant"):
        "the point-event API that decision receipts build on",
    ("repro.obs.tracing", "_SpanScope.__init__"): "Tracer.span's scope",
    ("repro.obs.tracing", "_SpanScope.__enter__"): "Tracer.span's scope",
    ("repro.obs.tracing", "_SpanScope.__exit__"): "Tracer.span's scope",
    ("repro.core.dcm", "DCMPolicy.retention_for"):
        "the method the three DCM policies implement",
    ("repro.tiering.policy", "PlacementPolicy.place"):
        "the method the four placement policies implement",
    ("repro.workload.traces", "read_trace"):
        "reads the file `repro trace --out` writes",
    # Tested API that no system path calls; each goes only together
    # with the tier-1 tests that exercise it (ROADMAP item 8).
    ("repro.core.controller", "MRMController.delete"): _TESTED,
    ("repro.core.controller", "MRMController.free_zones"): _TESTED,
    ("repro.core.errors", "RetentionErrorModel.spec_retention"): _TESTED,
    ("repro.core.errors", "RetentionErrorModel.age_for_rber"): _TESTED,
    ("repro.core.errors", "RetentionErrorModel.expected_bit_errors"): _TESTED,
    ("repro.core.mrm", "MRMDevice.max_damage"): _TESTED,
    ("repro.core.mrm", "MRMDevice.mean_damage"): _TESTED,
    ("repro.core.mrm", "MRMDevice.remaining_lifetime_fraction"): _TESTED,
    ("repro.core.mrm", "MRMDevice.accrue_refresh_energy"): _TESTED,
    ("repro.core.refresh", "RefreshScheduler.pending"): _TESTED,
    ("repro.core.replication", "ReplicaPair.covers_all_subblocks"): _TESTED,
    ("repro.core.replication", "ReplicationManager.dead_slots"): _TESTED,
    ("repro.core.replication",
     "ReplicationManager.write_amplification"): _TESTED,
    ("repro.core.replication",
     "ReplicationManager.pairing_success_rate"): _TESTED,
    ("repro.core.wear", "WearLeveler.damage_imbalance"): _TESTED,
    ("repro.core.wear", "WearLeveler.projected_lifetime_writes"): _TESTED,
    ("repro.core.zones", "Block.deadline"): _TESTED,
    ("repro.core.zones", "Block.expired"): _TESTED,
    ("repro.core.zones", "Block.remaining"): _TESTED,
    ("repro.core.zones", "Zone.written_bytes"): _TESTED,
    ("repro.core.zones", "ZonedAddressSpace.open_zones"): _TESTED,
    ("repro.core.zones", "ZonedAddressSpace.expired_blocks"): _TESTED,
    ("repro.devices.base", "TechnologyProfile.non_volatile"): _TESTED,
    ("repro.devices.base",
     "TechnologyProfile.read_energy_pj_per_bit"): _TESTED,
    ("repro.devices.base",
     "TechnologyProfile.write_energy_pj_per_bit"): _TESTED,
    ("repro.devices.catalog", "all_profiles"): _TESTED,
    ("repro.devices.dram", "DRAMDevice.refresh_bandwidth_tax"): _TESTED,
    ("repro.devices.dram", "DRAMDevice.refresh_power_w"): _TESTED,
    ("repro.devices.flash", "FlashTranslationLayer.trim"): _TESTED,
    ("repro.devices.flash", "FlashTranslationLayer.is_mapped"): _TESTED,
    ("repro.devices.flash",
     "FlashTranslationLayer.write_amplification"): _TESTED,
    ("repro.devices.flash", "FlashTranslationLayer.max_erase_count"): _TESTED,
    ("repro.devices.flash", "FlashTranslationLayer.mean_erase_count"): _TESTED,
    ("repro.devices.flash", "FlashDevice.read"): _TESTED,
    ("repro.devices.flash", "FlashDevice.trim"): _TESTED,
    ("repro.devices.flash", "FlashDevice.write_amplification"): _TESTED,
    ("repro.devices.flash", "FlashDevice.lifetime_host_writes_bytes"): _TESTED,
    ("repro.devices.hbm", "HBMStack.heat_flux_w_per_cm2"): _TESTED,
    ("repro.ecc.bch", "BCHCode.rate"): _TESTED,
    ("repro.ecc.bch", "BCHCode.uncorrectable_bit_error_rate"): _TESTED,
    ("repro.ecc.blockcodes", "required_correction_capability"): _TESTED,
    ("repro.ecc.policy", "DecodeTally.record"): _TESTED,
    ("repro.ecc.policy", "DecodeTally.reads"): _TESTED,
    ("repro.ecc.policy", "DecodeTally.uncorrectable"): _TESTED,
    ("repro.ecc.policy", "DecodeTally.silent_corruption_fraction"): _TESTED,
    ("repro.ecc.policy", "RetentionAwareECC.decode_read"): _TESTED,
    ("repro.ecc.policy",
     "RetentionAwareECC.refresh_deadline_for_code"): _TESTED,
    ("repro.ecc.policy",
     "RetentionAwareECC.refresh_deadline_for_code.<locals>.fails"): _TESTED,
    ("repro.endurance.lifetime", "sustainable_write_rate"): _TESTED,
    ("repro.endurance.lifetime", "drive_writes_per_day"): _TESTED,
    ("repro.obs.registry", "ObsGauge.add"): _TESTED,
    ("repro.obs.registry", "MetricsRegistry.__contains__"): _TESTED,
    ("repro.obs.registry", "MetricsRegistry.__len__"): _TESTED,
    ("repro.obs.registry", "MetricsRegistry.names"): _TESTED,
    ("repro.obs.registry", "NullRegistry.__contains__"): _TESTED,
    ("repro.obs.registry", "NullRegistry.__len__"): _TESTED,
    ("repro.obs.registry", "NullRegistry.names"): _TESTED,
    ("repro.obs.registry", "NullRegistry.snapshot"): _TESTED,
    ("repro.tiering.policy", "Placement.tier_of"): _TESTED,
    ("repro.tiering.scheduler", "TierManager.used_bytes"): _TESTED,
    ("repro.tiering.scheduler", "TierManager.remove"): _TESTED,
    ("repro.tiering.scheduler", "TierManager.tier_of"): _TESTED,
    ("repro.tiering.tiers", "flash_tier"): _TESTED,
    ("repro.units", "j_per_byte_to_pj_per_bit"): _TESTED,
    # Debug identity.
    ("repro.sim.events", "Event.name"): "the identity __repr__ prints",
    ("repro.sim.events", "Event.__repr__"): _REPR,
    ("repro.sim.process", "Timeout.__repr__"): _REPR,
    ("repro.sim.process", "WakeAt.__repr__"): _REPR,
    ("repro.sim.process", "Process.__repr__"): _REPR,
    ("repro.devices.base", "MemoryDevice.__repr__"): _REPR,
    ("repro.obs.registry", "ObsCounter.__repr__"): _REPR,
    ("repro.obs.registry", "ObsGauge.__repr__"): _REPR,
}


def _repro(*args: str) -> List[str]:
    return ["-m", "repro", *args]


def system_runs(work: str) -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` of every system entry point; outputs go under
    ``work``."""
    out = lambda name: os.path.join(work, name)  # noqa: E731
    runs = [
        ("bench suite", ["-m", "pytest", "benchmarks", "-q",
                         "-p", "no:cacheprovider", "--benchmark-disable"]),
        ("fig1", _repro("fig1")),
        ("fig1 --years", _repro("fig1", "--years", "10")),
        ("tradeoff", _repro("tradeoff")),
        ("tradeoff --reference", _repro("tradeoff", "--reference",
                                        "pcm-optane")),
        ("characterize", _repro("characterize")),
        ("characterize --requests --seed", _repro(
            "characterize", "--requests", "4", "--seed", "3")),
        ("provisioning", _repro("provisioning")),
        ("serve", _repro("serve", "--duration", "20", "--engines", "2",
                         "--metrics", out("serve.json"),
                         "--trace-out", out("serve.jsonl"))),
        ("serve prometheus", _repro("serve", "--duration", "10",
                                    "--metrics", out("serve.prom"))),
        ("serve analytic", _repro("serve", "--duration", "20",
                                  "--mode", "analytic")),
        ("serve auto", _repro("serve", "--duration", "20", "--mode", "auto")),
        ("obs top", _repro("obs", "top", out("serve.json"), "--limit", "5")),
        ("obs top gauges", _repro("obs", "top", out("serve.json"),
                                  "--section", "gauges")),
        ("obs spans", _repro("obs", "spans", out("serve.jsonl"))),
        ("obs spans --limit", _repro("obs", "spans", out("serve.jsonl"),
                                     "--limit", "5")),
        ("obs diff", _repro("obs", "diff", out("serve.json"),
                            out("serve.json"))),
        ("sensitivity", _repro("sensitivity")),
        ("claims", _repro("claims")),
        ("trace", _repro("trace", "--out", out("trace.jsonl"),
                         "--duration", "20")),
        ("trace code", _repro("trace", "--out", out("trace-code.jsonl"),
                              "--profile", "code", "--duration", "20",
                              "--seed", "4")),
        ("fleet e13", _repro("fleet", "--experiment", "e13", "--tiny",
                             "--workers", "2",
                             "--metrics", out("fleet.json"))),
        ("fleet e14", _repro("fleet", "--experiment", "e14", "--tiny")),
        ("fleet des", _repro("fleet", "--clusters", "2", "--horizon", "120",
                             "--epoch", "60", "--routing", "tenant-affinity",
                             "--scaling", "static", "--mode", "des")),
        ("fleet power-of-two", _repro("fleet", "--clusters", "2",
                                      "--horizon", "120", "--epoch", "60",
                                      "--routing", "power-of-two",
                                      "--rate-scale", "0.5")),
        ("lint", ["-m", "repro.lint", PACKAGE]),
    ]
    for mode in ("des", "analytic", "auto", "cross-validate"):
        runs.append((f"sweep {mode}", _repro("sweep", "--mode", mode, "--tiny")))
    for family in ("controller", "serving", "chaos"):
        runs.append((f"faults {family}", _repro(
            "faults", "--family", family, "--tiny",
            "--metrics", out(f"faults-{family}.json"),
        )))
    runs.append(("faults --param", _repro(
        "faults", "--family", "chaos", "--tiny", "--seed", "5",
        "--param", "num_requests=12", "--param", "horizon_s=10",
        "--param", "arrival_period_s=0.5", "--workers", "1",
    )))
    examples = os.path.join(ROOT, "examples")
    for name in sorted(os.listdir(examples)):
        if name.endswith(".py"):
            runs.append((f"example {name}", [os.path.join(examples, name)]))
    for workload in ("fleet-e13", "fleet-des", "faults"):
        runs.append((f"perfbench {workload}", [
            os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
            "--tiny", "--trace", "1", "--seconds", "0",
            "--out", out("perfbench"),
        ]))
    return runs


# ----------------------------------------------------------------------
# Child: run one entry point under the tracer
# ----------------------------------------------------------------------
def _child(out_path: str, argv: Sequence[str]) -> int:
    codes: Dict[int, object] = {}

    def tracer(frame, _event, _arg):
        # Global 'call' events only: returning None traces no lines.
        # Holding each code object keeps its id unique for the run.
        code = frame.f_code
        codes[id(code)] = code

    argv = list(argv)
    if argv[0] == "-m":
        sys.argv = argv[1:]
        sys.path[0] = os.getcwd()
    else:
        sys.argv = argv
        sys.path[0] = os.path.dirname(os.path.abspath(argv[0]))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        if argv[0] == "-m":
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
        status = 0
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    keys = sorted({
        (os.path.abspath(code.co_filename), code.co_firstlineno, code.co_name)
        for code in codes.values()
        if os.path.abspath(code.co_filename).startswith(PACKAGE + os.sep)
    })
    with open(out_path, "w") as fh:
        json.dump(keys, fh)
    return status


def _traced(
    index: int, label: str, argv: List[str], work: str, env: Dict[str, str]
) -> Set[Key]:
    out_path = os.path.join(work, f"reach-{index}.json")
    cwd = ROOT if argv[:2] == ["-m", "pytest"] else work
    command = [sys.executable, os.path.abspath(__file__), "--child", out_path, "--", *argv]
    done = subprocess.run(
        command, cwd=cwd, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
    print(f"  {label}: {status}", file=sys.stderr)
    if done.returncode != 0 and done.stderr:
        print("    " + done.stderr.strip().splitlines()[-1], file=sys.stderr)
    if not os.path.exists(out_path):
        return set()
    with open(out_path) as fh:
        return {tuple(key) for key in json.load(fh)}


# ----------------------------------------------------------------------
# Parent: every function, then the three classes
# ----------------------------------------------------------------------
def defined_functions() -> Dict[Key, Tuple[str, int]]:
    """Every ``def`` under ``src/repro``, keyed as the tracer keys it,
    with its qualified name (as ``__qualname__`` spells it) and its
    length in lines."""
    keys: Dict[Key, Tuple[str, int]] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                qualname = prefix + child.name
                keys[(path, first, child.name)] = (
                    qualname, child.end_lineno - first + 1
                )
                visit(child, path, f"{qualname}.<locals>.")
            else:
                visit(child, path, prefix)

    for directory, _dirs, files in os.walk(PACKAGE):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path) as fh:
                visit(ast.parse(fh.read(), path), path, "")
    return keys


def source_hashes() -> Dict[str, str]:
    """sha256 of every ``.py`` file under ``src/repro``, by path."""
    hashes: Dict[str, str] = {}
    for directory, _dirs, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, "rb") as fh:
                    hashes[path] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def _module(path: str) -> str:
    relative = os.path.relpath(path, SRC)[: -len(".py")]
    return relative.replace(os.sep, ".")


def main(argv: Sequence[str] = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_PERF_TINY="1")
    env.pop("REPRO_WORKERS", None)
    hashes = source_hashes()  # first: an edit while parsing still shows
    functions = {
        key: info for key, info in defined_functions().items()
        if not key[0].startswith(LINT)
    }
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        print("tier-1:", file=sys.stderr)
        tests = _traced(0, "tier-1", TESTS, work, env)
        print("system entry points:", file=sys.stderr)
        system: Set[Key] = set()
        with open(BENCH_RECORD, "rb") as fh:
            bench_record = fh.read()
        try:
            for index, (label, run) in enumerate(system_runs(work), 1):
                system |= _traced(index, label, run, work, env)
        finally:
            with open(BENCH_RECORD, "wb") as fh:
                fh.write(bench_record)
    now = source_hashes()
    changed = sorted(
        path for path in hashes.keys() | now.keys()
        if hashes.get(path) != now.get(path)
    )
    if changed:
        print("source files changed during the run; not reporting:",
              file=sys.stderr)
        for path in changed:
            print(f"  {os.path.relpath(path, ROOT)}", file=sys.stderr)
        return 2
    reached = {key for key in functions if key in system}
    tests_only = {key for key in set(functions) - reached if key in tests}
    never = set(functions) - reached - tests_only
    print(f"{len(functions)} functions in src/repro outside lint/: "
          f"{len(reached)} system / {len(tests_only)} tests-only / "
          f"{len(never)} never")
    print(f"tests-only functions span "
          f"{sum(functions[key][1] for key in tests_only)} lines")
    unkept: List[str] = []
    for title, group in (("tests-only", tests_only), ("never", never)):
        by_module: Dict[str, List[Key]] = defaultdict(list)
        for key in group:
            by_module[_module(key[0])].append(key)
        print(f"\n{title}:")
        for module in sorted(by_module):
            names = []
            for key in sorted(by_module[module]):
                qualname = functions[key][0]
                names.append(f"{qualname}:{key[1]}")
                if (module, qualname) not in KEEP:
                    unkept.append(f"{module}:{qualname} ({title})")
            print(f"  {module}: {', '.join(names)}")
    unreached = {
        (_module(key[0]), functions[key][0]) for key in tests_only | never
    }
    defined = {(_module(key[0]), info[0]) for key, info in functions.items()}
    stale = [
        f"{module}:{qualname} "
        f"({'system' if (module, qualname) in defined else 'gone'})"
        for module, qualname in sorted(KEEP)
        if (module, qualname) not in unreached
    ]
    for title, names in (("not in KEEP", unkept), ("stale KEEP entries", stale)):
        if names:
            print(f"\n{title}:")
            for name in names:
                print(f"  {name}")
    return 1 if unkept or stale else 0


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        sys.exit(_child(sys.argv[2], sys.argv[4:]))
    sys.exit(main())
