"""The lint engine: discover files, parse once, run every rule.

Pipeline per run:

1. discover ``.py`` files under the given paths (skipping junk dirs);
2. parse each file once and build the repo-wide import graph, from
   which the determinism-critical module set is derived;
3. run every selected per-file rule over every file;
4. run the interprocedural dataflow pass (RL012-RL016) over the same
   parsed trees, unless no dataflow rule is selected;
5. drop inline-suppressed findings — every finding left fails the run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

from repro.lint.dataflow import run_dataflow
from repro.lint.findings import Finding, sort_findings
from repro.lint.imports import ImportGraph, module_name_for
from repro.lint.rules import Rule, RuleContext, all_rule_ids, get_rule_classes
from repro.lint.suppressions import SuppressionIndex

#: Directories never descended into.
SKIP_DIRS: Set[str] = {
    ".git",
    "__pycache__",
    ".pytest_cache",
    "build",
    "dist",
    ".eggs",
}


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """All ``.py`` files under ``paths`` (files pass through verbatim),
    deduplicated, in sorted order for deterministic reports."""
    seen: Set[Path] = set()
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            seen.add(path.resolve())
        elif path.is_dir():
            for child in path.rglob("*.py"):
                if not any(part in SKIP_DIRS for part in child.parts):
                    seen.add(child.resolve())
    return sorted(seen)


def _display_path(path: Path, root: Optional[Path]) -> str:
    """Repo-relative posix path when possible (stable reports)."""
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


@dataclass
class ParsedFile:
    path: Path
    display_path: str
    source: str
    tree: ast.Module
    lines: List[str]
    module: Optional[str]


@dataclass
class LintResult:
    """Everything one run produced, pre-partitioned."""

    #: Findings no pragma covers: each one fails the run.
    new: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    files_checked: int = 0
    #: (path, line, token) for malformed or unknown-id suppression
    #: pragmas — the CLI turns these into exit code 2.
    suppression_errors: List[Tuple[str, int, str]] = field(default_factory=list)


def _parse(
    files: Sequence[Path], repo_root: Optional[Path]
) -> Tuple[List[ParsedFile], List[Tuple[str, str]]]:
    parsed: List[ParsedFile] = []
    errors: List[Tuple[str, str]] = []
    for path in files:
        display = _display_path(path, repo_root)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            errors.append((display, str(exc)))
            continue
        parsed.append(
            ParsedFile(
                path=path,
                display_path=display,
                source=source,
                tree=tree,
                lines=source.splitlines(),
                module=module_name_for(path),
            )
        )
    return parsed, errors


def lint_paths(
    paths: Sequence[Path],
    rule_classes: Optional[Sequence[Type[Rule]]] = None,
    repo_root: Optional[Path] = None,
    dataflow_rule_ids: Optional[Set[str]] = None,
) -> LintResult:
    """Lint every ``.py`` file under ``paths``.

    ``rule_classes`` selects the per-file rules and ``dataflow_rule_ids``
    the interprocedural ones.  ``None`` means every rule of that family;
    an empty selection runs none of it, so with no dataflow id the
    dataflow pass builds no summaries at all.
    """
    rule_classes = get_rule_classes() if rule_classes is None else rule_classes
    parsed, parse_errors = _parse(discover_files([Path(p) for p in paths]), repo_root)

    graph = ImportGraph()
    for pf in parsed:
        graph.add(pf.path, pf.tree)
    critical = graph.determinism_critical()

    result = LintResult(parse_errors=parse_errors, files_checked=len(parsed))
    known_ids = all_rule_ids()
    raw: List[Finding] = []
    suppression_index: Dict[str, SuppressionIndex] = {}
    for pf in parsed:
        ctx = RuleContext(
            path=pf.display_path,
            tree=pf.tree,
            lines=pf.lines,
            module=pf.module,
            determinism_critical=critical,
        )
        suppressions = SuppressionIndex(pf.lines, tree=pf.tree, known_ids=known_ids)
        suppression_index[pf.display_path] = suppressions
        for lineno, token in suppressions.errors:
            result.suppression_errors.append((pf.display_path, lineno, token))
        file_findings: List[Finding] = []
        for rule_cls in rule_classes:
            file_findings.extend(rule_cls().check(ctx))
        kept, suppressed = suppressions.split(file_findings)
        raw.extend(kept)
        result.suppressed.extend(suppressed)

    if dataflow_rule_ids is None or dataflow_rule_ids:
        entries = [
            (pf.display_path, pf.module or "", pf.source, pf.tree) for pf in parsed
        ]
        for finding in run_dataflow(entries, dataflow_rule_ids, critical):
            if suppression_index[finding.path].is_suppressed(finding):
                result.suppressed.append(finding)
            else:
                raw.append(finding)

    result.new = sort_findings(raw)
    return result
