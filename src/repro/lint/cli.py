"""Command-line front end: ``repro-lint`` / ``python -m repro.lint``.

Exit codes: 0 clean (or everything suppressed/baselined), 1 new
findings, 2 usage errors, parse errors, or malformed/unknown-id
suppression pragmas.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.baseline import Baseline, BaselineError, DEFAULT_BASELINE_NAME
from repro.lint.engine import AUTO_CACHE_DIR, LintEngine
from repro.lint.output import OUTPUT_FORMATS, render_json, render_sarif
from repro.lint.rules import rule_catalog, split_selection

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _find_repo_root(start: Path) -> Optional[Path]:
    """Nearest ancestor holding a .git dir or pyproject.toml."""
    current = start.resolve()
    for candidate in (current, *current.parents):
        if (candidate / ".git").exists() or (candidate / "pyproject.toml").exists():
            return candidate
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker for this repo: unit discipline, "
            "determinism, float hygiene, sim-process hygiene, and device-"
            "parameter provenance."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RLxxx",
        help="run only these rule ids (repeatable / comma-separated)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RLxxx",
        help="skip these rule ids (repeatable / comma-separated)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=f"baseline file (default: <repo-root>/{DEFAULT_BASELINE_NAME} if present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file: report every finding as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "accept all current findings into the baseline file and exit 0; "
            "each generated entry gets a TODO justification to fill in"
        ),
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat WARNING findings as failures too",
    )
    parser.add_argument(
        "--show-baselined",
        action="store_true",
        help="also print findings absorbed by the baseline",
    )
    parser.add_argument(
        "--no-hints",
        action="store_true",
        help="omit the fix-hint line under each finding",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--format",
        choices=OUTPUT_FORMATS,
        default="text",
        help="report format (default: text); json and sarif print one "
        "document to stdout",
    )
    parser.add_argument(
        "--dataflow",
        dest="dataflow",
        action="store_true",
        default=True,
        help="run the interprocedural dataflow pass, RL012-RL016 (default: on)",
    )
    parser.add_argument(
        "--no-dataflow",
        dest="dataflow",
        action="store_false",
        help="skip the dataflow pass (per-file rules only)",
    )
    parser.add_argument(
        "--dataflow-cache",
        metavar="DIR",
        help="summary cache directory (default: <repo-root>/.repro-lint-cache); "
        "'none' disables caching",
    )
    return parser


def _split_ids(values: Optional[List[str]]) -> Optional[List[str]]:
    if not values:
        return None
    out: List[str] = []
    for value in values:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, summary in sorted(rule_catalog().items()):
            print(f"{rule_id}  {summary}")
        return EXIT_CLEAN

    try:
        rule_classes, dataflow_ids = split_selection(
            _split_ids(args.select), _split_ids(args.ignore)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not args.dataflow and not rule_classes and dataflow_ids:
        # Every selected rule is interprocedural: without the dataflow
        # pass the run would check nothing and still exit 0.
        print(
            "error: --no-dataflow turns off the only pass that runs "
            f"{', '.join(sorted(dataflow_ids))}; nothing to check",
            file=sys.stderr,
        )
        return EXIT_USAGE

    repo_root = _find_repo_root(Path.cwd())

    cache_dir: object = AUTO_CACHE_DIR
    if args.dataflow_cache:
        cache_dir = (
            None if args.dataflow_cache.lower() == "none"
            else Path(args.dataflow_cache)
        )

    baseline_path: Optional[Path] = None
    if args.baseline:
        baseline_path = Path(args.baseline)
    elif repo_root is not None:
        candidate = repo_root / DEFAULT_BASELINE_NAME
        if candidate.exists():
            baseline_path = candidate

    baseline = Baseline()
    if not args.no_baseline and not args.write_baseline and baseline_path:
        if not baseline_path.exists():
            print(f"error: baseline {baseline_path} not found", file=sys.stderr)
            return EXIT_USAGE
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    engine = LintEngine(
        rule_classes=rule_classes,
        baseline=baseline,
        repo_root=repo_root,
        dataflow=args.dataflow and bool(dataflow_ids),
        dataflow_rule_ids=dataflow_ids,
        dataflow_cache_dir=cache_dir,
    )
    result = engine.run([Path(p) for p in args.paths])

    for display, error in result.parse_errors:
        print(f"{display}: parse error: {error}", file=sys.stderr)
    for display, lineno, token in result.suppression_errors:
        print(
            f"{display}:{lineno}: bad suppression pragma: "
            f"unknown or malformed rule id {token!r}",
            file=sys.stderr,
        )

    if args.write_baseline:
        target = baseline_path or Path(DEFAULT_BASELINE_NAME)
        fresh = Baseline.from_findings(
            result.new + result.baselined,
            justification="TODO: justify or fix (auto-generated by --write-baseline)",
        )
        fresh.dump(target)
        print(f"wrote {len(fresh)} finding(s) to {target}")
        return EXIT_CLEAN

    failures = result.failures(strict=args.strict)

    if args.format == "json":
        sys.stdout.write(render_json(result))
    elif args.format == "sarif":
        sys.stdout.write(render_sarif(result))
    else:
        shown = list(result.new)
        if args.show_baselined:
            shown += result.baselined
        for finding in shown:
            tag = " (baselined)" if finding in result.baselined else ""
            print(finding.render(show_hint=not args.no_hints) + tag)

        summary = (
            f"repro-lint: {result.files_checked} file(s), "
            f"{len(result.new)} new finding(s), "
            f"{len(result.baselined)} baselined, "
            f"{len(result.suppressed)} suppressed"
        )
        if result.stale_baseline_entries:
            summary += (
                f"; {len(result.stale_baseline_entries)} stale baseline "
                "entry(ies) — prune them"
            )
        print(summary)
        if result.dataflow_stats is not None:
            stats = result.dataflow_stats
            print(
                f"dataflow: {stats.files} file(s) summarized, "
                f"cache {stats.cache_hits} hit(s) / "
                f"{stats.cache_misses} miss(es) "
                f"({stats.hit_rate():.0%} hit rate)"
            )

    if result.parse_errors or result.suppression_errors:
        return EXIT_USAGE
    return EXIT_FINDINGS if failures else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
