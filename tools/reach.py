#!/usr/bin/env python3
"""Which functions of ``src/repro`` the system reaches, and which only tests.

    python tools/reach.py

Runs tier-1 and every system entry point under a call tracer, each in a
child process of its own:

- the benchmark suite (tiny grids, no ``-x``; ``BENCH_sim.json`` is put
  back as it was);
- each CLI subcommand, with ``--metrics``/``--trace-out`` outputs and
  the ``obs`` inspectors over them, and ``python -m repro.lint``;
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

Forked sweep workers are not traced.  Every entry point runs serial
except one 2-worker fleet run, and the serial path calls the functions
the workers would.  Tier-1 runs without ``-x``; a child that exits
non-zero is reported, not fatal.  The whole run takes about five
minutes on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import ast
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
        ("tradeoff", _repro("tradeoff")),
        ("characterize", _repro("characterize")),
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
        ("obs diff", _repro("obs", "diff", out("serve.json"),
                            out("serve.json"))),
        ("sensitivity", _repro("sensitivity")),
        ("claims", _repro("claims")),
        ("trace", _repro("trace", "--out", out("trace.jsonl"),
                         "--profile", "code", "--duration", "20")),
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
def defined_functions() -> Dict[Key, int]:
    """Every ``def`` under ``src/repro``, keyed as the tracer keys it,
    with its length in lines."""
    keys: Dict[Key, int] = {}
    for directory, _dirs, files in os.walk(PACKAGE):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [node.lineno] + [d.lineno for d in node.decorator_list]
                    )
                    keys[(path, first, node.name)] = node.end_lineno - first + 1
    return keys


def _module(path: str) -> str:
    relative = os.path.relpath(path, SRC)[: -len(".py")]
    return relative.replace(os.sep, ".")


def main(argv: Sequence[str] = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_PERF_TINY="1")
    env.pop("REPRO_WORKERS", None)
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
    functions = {
        key: lines for key, lines in defined_functions().items()
        if not key[0].startswith(LINT)
    }
    reached = {key for key in functions if key in system}
    tests_only = {key for key in set(functions) - reached if key in tests}
    never = set(functions) - reached - tests_only
    print(f"{len(functions)} functions in src/repro outside lint/: "
          f"{len(reached)} system / {len(tests_only)} tests-only / "
          f"{len(never)} never")
    print(f"tests-only functions span "
          f"{sum(functions[key] for key in tests_only)} lines")
    for title, group in (("tests-only", tests_only), ("never", never)):
        by_module: Dict[str, List[Key]] = defaultdict(list)
        for key in group:
            by_module[_module(key[0])].append(key)
        print(f"\n{title}:")
        for module in sorted(by_module):
            names = ", ".join(
                f"{name}:{line}" for _path, line, name in sorted(by_module[module])
            )
            print(f"  {module}: {names}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        sys.exit(_child(sys.argv[2], sys.argv[4:]))
    sys.exit(main())
