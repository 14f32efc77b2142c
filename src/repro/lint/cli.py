"""Command-line front end: ``repro-lint`` / ``python -m repro.lint``.

Exit codes: 0 clean (or everything suppressed), 1 new findings, 2 usage
errors, parse errors, or malformed/unknown-id suppression pragmas.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import lint_paths
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
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
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

    result = lint_paths(
        [Path(p) for p in args.paths],
        rule_classes=rule_classes,
        repo_root=_find_repo_root(Path.cwd()),
        dataflow_rule_ids=dataflow_ids,
    )

    for display, error in result.parse_errors:
        print(f"{display}: parse error: {error}", file=sys.stderr)
    for display, lineno, token in result.suppression_errors:
        print(
            f"{display}:{lineno}: bad suppression pragma: "
            f"unknown or malformed rule id {token!r}",
            file=sys.stderr,
        )
    for finding in result.new:
        print(finding.render())
    print(
        f"repro-lint: {result.files_checked} file(s), "
        f"{len(result.new)} new finding(s), "
        f"{len(result.suppressed)} suppressed"
    )

    if result.parse_errors or result.suppression_errors:
        return EXIT_USAGE
    return EXIT_FINDINGS if result.new else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
