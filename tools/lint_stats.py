#!/usr/bin/env python
"""Summarize repro-lint findings by rule and by disposition.

Runs the full linter (per-file rules + the interprocedural dataflow
pass) over ``src/repro`` and prints a small report: findings per rule
id split into new / baselined / suppressed, a per-layer breakdown
(per-file / dataflow), and the dataflow pass's summary count.  The
committed copy of the output lives at ``results/lint_stats.txt``;
regenerate it with::

    python tools/lint_stats.py > results/lint_stats.txt

The report is deterministic (sorted rule ids, no timestamps, no
machine-dependent timings), so a stale committed copy shows up as a
plain git diff.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.lint import lint_paths  # noqa: E402
from repro.lint.baseline import Baseline  # noqa: E402
from repro.lint.dataflow import DATAFLOW_RULE_IDS  # noqa: E402
from repro.lint.rules import rule_catalog  # noqa: E402


def _layer_of(rule_id: str) -> str:
    return "dataflow" if rule_id in DATAFLOW_RULE_IDS else "per-file"


def build_report() -> str:
    baseline_path = REPO_ROOT / ".repro-lint-baseline.json"
    baseline = (
        Baseline.load(baseline_path) if baseline_path.exists() else None
    )
    result = lint_paths(
        [REPO_ROOT / "src" / "repro"],
        baseline=baseline,
        repo_root=REPO_ROOT,
        dataflow_cache_dir=None,
    )

    groups = {
        "new": Counter(f.rule_id for f in result.new),
        "baselined": Counter(f.rule_id for f in result.baselined),
        "suppressed": Counter(f.rule_id for f in result.suppressed),
    }
    catalog = rule_catalog()

    lines = ["repro-lint findings by rule (src/repro)", ""]
    header = f"{'rule':<7} {'new':>5} {'baselined':>10} {'suppressed':>11}  summary"
    lines.append(header)
    lines.append("-" * len(header))
    for rule_id in sorted(catalog):
        row = [groups[key][rule_id] for key in ("new", "baselined", "suppressed")]
        if not any(row):
            continue
        lines.append(
            f"{rule_id:<7} {row[0]:>5} {row[1]:>10} {row[2]:>11}"
            f"  {catalog[rule_id]}"
        )
    totals = [sum(groups[key].values()) for key in ("new", "baselined", "suppressed")]
    lines.append("-" * len(header))
    lines.append(f"{'total':<7} {totals[0]:>5} {totals[1]:>10} {totals[2]:>11}")
    lines.append("")
    lines.append("findings by layer (new + baselined + suppressed)")
    layer_rules = Counter(_layer_of(rule_id) for rule_id in catalog)
    layer_findings: Counter = Counter()
    for group in groups.values():
        for rule_id, count in group.items():
            layer_findings[_layer_of(rule_id)] += count
    for layer in ("per-file", "dataflow"):
        lines.append(
            f"  {layer:<9} {layer_findings[layer]:>4} finding(s) across "
            f"{layer_rules[layer]} rule(s)"
        )
    lines.append("")
    lines.append(f"files checked: {result.files_checked}")
    if result.dataflow_stats is not None:
        lines.append(
            f"dataflow: {result.dataflow_stats.files} file(s) summarized"
        )
    quiet = sorted(set(catalog) - {r for g in groups.values() for r in g})
    lines.append(f"rules with zero findings: {', '.join(quiet)}")
    if result.parse_errors:
        lines.append(f"parse errors: {len(result.parse_errors)}")
    if result.suppression_errors:
        lines.append(f"suppression errors: {len(result.suppression_errors)}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(build_report())
    sys.exit(0)
