#!/usr/bin/env python3
"""Regenerate every experiment table into one results file, or check it.

Runs the benchmark harness with output capture disabled and collects
the printed experiment blocks into ``results/experiments_output.txt``,
so EXPERIMENTS.md can be audited against a fresh run:

    python tools/run_experiments.py [--out results/experiments_output.txt]
    python tools/run_experiments.py --check [--out ...]

The first form is a thin wrapper over ``pytest benchmarks/
--benchmark-only -s``; it exists so a single command produces the
complete, ordered record.  ``--check`` reruns the paper benches
(``benchmarks/bench_*.py --benchmark-disable -s``) and compares each
experiment block — its title and body — with the committed record,
ignoring the pytest-benchmark timing table.  It exits 1 and names every
block that differs, is missing or is new, and exits 0 when all match.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import subprocess
import sys
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: The rule the ``report`` fixture in ``benchmarks/conftest.py`` prints
#: above and below each block title.
RULE = "=" * 72

#: pytest's progress output, which lands on its own line after a block.
_PROGRESS = re.compile(r"^[.sxFE]*(\s*\[\s*\d+%\])?$")

#: The first line of pytest-benchmark's timing table.
_TIMING_TABLE = re.compile(r"^-+ benchmark")


def experiment_blocks(text: str) -> Dict[str, List[str]]:
    """Block title -> body lines, in print order.

    A body runs to the next block's rule or to the timing table; the
    trailing progress dots and blank lines pytest interleaves are
    dropped.
    """
    lines = text.splitlines()
    blocks: Dict[str, List[str]] = {}
    i = 0
    while i < len(lines):
        if not (
            lines[i] == RULE and i + 2 < len(lines) and lines[i + 2] == RULE
        ):
            i += 1
            continue
        title = lines[i + 1]
        j = i + 3
        while j < len(lines) and not (
            lines[j] == RULE or _TIMING_TABLE.match(lines[j])
        ):
            j += 1
        body = lines[i + 3 : j]
        while body and (not body[-1].strip() or _PROGRESS.match(body[-1])):
            body.pop()
        blocks[title] = body
        i = j
    return blocks


def differing_blocks(
    expected: Dict[str, List[str]], actual: Dict[str, List[str]]
) -> List[str]:
    """One line per block that changed, vanished or appeared."""
    problems = []
    for title, body in expected.items():
        if title not in actual:
            problems.append(f"missing: {title}")
        elif actual[title] != body:
            problems.append(f"differs: {title}")
    for title in actual:
        if title not in expected:
            problems.append(f"new: {title}")
    return problems


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def check(record: pathlib.Path) -> int:
    benches = sorted(str(p) for p in (ROOT / "benchmarks").glob("bench_*.py"))
    command = [
        sys.executable, "-m", "pytest", *benches,
        "--benchmark-disable", "-s", "-qq", "-p", "no:cacheprovider",
    ]
    print(f"running: pytest {len(benches)} paper benches --benchmark-disable -s")
    completed = subprocess.run(
        command, capture_output=True, text=True, cwd=ROOT, env=_env()
    )
    expected = experiment_blocks(record.read_text())
    actual = experiment_blocks(completed.stdout)
    problems = differing_blocks(expected, actual)
    for problem in problems:
        print(problem)
    if completed.returncode != 0:
        print(completed.stdout[-2000:] + completed.stderr[-2000:], file=sys.stderr)
        print("BENCHMARKS FAILED", file=sys.stderr)
        return 1
    if problems:
        print(f"{len(problems)} of {len(expected)} experiment blocks differ "
              f"from {record}")
        return 1
    print(f"all {len(expected)} experiment blocks match {record}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="results/experiments_output.txt",
        help="the experiment record to write (or, with --check, to compare with)",
    )
    parser.add_argument(
        "--benchmarks", default="benchmarks",
        help="benchmark directory to run",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="rerun the paper benches and exit 1 if any block differs from --out",
    )
    args = parser.parse_args()

    out_path = pathlib.Path(args.out)
    if args.check:
        return check(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)

    command = [
        sys.executable, "-m", "pytest", args.benchmarks,
        "--benchmark-only", "-s", "-qq", "--benchmark-disable-gc",
    ]
    print("running:", " ".join(command))
    completed = subprocess.run(command, capture_output=True, text=True, env=_env())
    out_path.write_text(completed.stdout + completed.stderr)
    print(f"wrote {out_path} ({len(completed.stdout.splitlines())} lines)")
    if completed.returncode != 0:
        print("BENCHMARKS FAILED — see the output file", file=sys.stderr)
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())
