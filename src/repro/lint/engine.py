"""The lint engine: discover files, parse once, run every rule.

Pipeline per run:

1. discover ``.py`` files under the given paths (skipping junk dirs);
2. parse each file once and build the repo-wide import graph, from
   which the determinism-critical module set is derived;
3. run every selected per-file rule over every file;
4. run the interprocedural dataflow pass (RL012-RL016) over the same
   parsed trees, with per-file summaries served from a content-hash
   cache;
5. drop inline-suppressed findings, then split the rest against the
   baseline;
6. report — new ERROR findings (or, under ``--strict``, warnings too)
   fail the run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple, Type

from repro.lint.baseline import Baseline
from repro.lint.dataflow import DataflowStats, run_dataflow
from repro.lint.dataflow.cache import DEFAULT_CACHE_DIR_NAME
from repro.lint.findings import Finding, Severity, sort_findings
from repro.lint.imports import ImportGraph, module_name_for
from repro.lint.rules import Rule, RuleContext, all_rule_ids, get_rule_classes
from repro.lint.suppressions import SuppressionIndex

#: Sentinel: derive the dataflow cache dir from the repo root.  Passing
#: ``dataflow_cache_dir=None`` explicitly disables on-disk caching.
AUTO_CACHE_DIR = object()

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
    """Repo-relative posix path when possible (stable fingerprints)."""
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
    tree: ast.Module
    lines: List[str]
    module: Optional[str]
    #: Raw source text — the dataflow cache key hashes exactly this, so
    #: engine runs and standalone ``analyze_tree`` runs share entries.
    source: str = ""


@dataclass
class LintResult:
    """Everything one run produced, pre-partitioned."""

    new: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    files_checked: int = 0
    stale_baseline_entries: List[dict] = field(default_factory=list)
    #: (path, line, token) for malformed or unknown-id suppression
    #: pragmas — the CLI turns these into exit code 2.
    suppression_errors: List[Tuple[str, int, str]] = field(default_factory=list)
    #: Cache accounting for the dataflow pass (None when disabled).
    dataflow_stats: Optional[DataflowStats] = None

    @property
    def all_findings(self) -> List[Finding]:
        return sort_findings(self.new + self.baselined + self.suppressed)

    def failures(self, strict: bool = False) -> List[Finding]:
        """Findings that should fail the run."""
        return [
            f
            for f in self.new
            if strict or f.severity is Severity.ERROR
        ]


class LintEngine:
    """Configured lint run over a set of paths."""

    def __init__(
        self,
        rule_classes: Optional[Sequence[Type[Rule]]] = None,
        baseline: Optional[Baseline] = None,
        repo_root: Optional[Path] = None,
        dataflow: bool = True,
        dataflow_rule_ids: Optional[Set[str]] = None,
        dataflow_cache_dir: object = AUTO_CACHE_DIR,
    ) -> None:
        # An explicit empty list is a dataflow-only selection, not
        # "default to everything" — only None means the full registry.
        self.rule_classes = list(
            get_rule_classes() if rule_classes is None else rule_classes
        )
        self.baseline = baseline or Baseline()
        self.repo_root = repo_root
        self.dataflow = dataflow
        self.dataflow_rule_ids = dataflow_rule_ids
        if dataflow_cache_dir is AUTO_CACHE_DIR:
            dataflow_cache_dir = (
                repo_root / DEFAULT_CACHE_DIR_NAME if repo_root else None
            )
        self.dataflow_cache_dir: Optional[Path] = (
            Path(dataflow_cache_dir) if dataflow_cache_dir else None  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    def _parse(self, files: Sequence[Path]) -> Tuple[List[ParsedFile], List[Tuple[str, str]]]:
        parsed: List[ParsedFile] = []
        errors: List[Tuple[str, str]] = []
        for path in files:
            display = _display_path(path, self.repo_root)
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
                    tree=tree,
                    lines=source.splitlines(),
                    module=module_name_for(path),
                    source=source,
                )
            )
        return parsed, errors

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, paths: Sequence[Path]) -> LintResult:
        files = discover_files([Path(p) for p in paths])
        parsed, parse_errors = self._parse(files)

        graph = ImportGraph()
        for pf in parsed:
            graph.add(pf.path, pf.tree)
        critical = graph.determinism_critical()

        result = LintResult(parse_errors=parse_errors, files_checked=len(parsed))
        known_ids = all_rule_ids()
        raw: List[Finding] = []
        suppression_index: dict = {}
        for pf in parsed:
            ctx = RuleContext(
                path=pf.display_path,
                tree=pf.tree,
                lines=pf.lines,
                module=pf.module,
                determinism_critical=critical,
            )
            suppressions = SuppressionIndex(
                pf.lines, tree=pf.tree, known_ids=known_ids
            )
            suppression_index[pf.display_path] = suppressions
            for lineno, token in suppressions.errors:
                result.suppression_errors.append((pf.display_path, lineno, token))
            file_findings: List[Finding] = []
            for rule_cls in self.rule_classes:
                file_findings.extend(rule_cls().check(ctx))
            kept, suppressed = suppressions.split(file_findings)
            raw.extend(kept)
            result.suppressed.extend(suppressed)

        if self.dataflow:
            entries = [
                (pf.display_path, pf.module or "", pf.source, pf.tree)
                for pf in parsed
            ]
            df_findings, result.dataflow_stats = run_dataflow(
                entries,
                cache_dir=self.dataflow_cache_dir,
                rule_ids=self.dataflow_rule_ids,
                critical_modules=critical,
            )
            for finding in df_findings:
                suppressions = suppression_index.get(finding.path)
                if suppressions is not None and suppressions.is_suppressed(finding):
                    result.suppressed.append(finding)
                else:
                    raw.append(finding)

        new, baselined = self.baseline.split(sort_findings(raw))
        result.new = sort_findings(new)
        result.baselined = sort_findings(baselined)
        result.stale_baseline_entries = self.baseline.stale_entries(raw)
        return result


def lint_paths(
    paths: Sequence[Path],
    rule_classes: Optional[Sequence[Type[Rule]]] = None,
    baseline: Optional[Baseline] = None,
    repo_root: Optional[Path] = None,
    dataflow: bool = True,
    dataflow_rule_ids: Optional[Set[str]] = None,
    dataflow_cache_dir: object = AUTO_CACHE_DIR,
) -> LintResult:
    """One-call convenience wrapper used by tests and the CLI."""
    engine = LintEngine(
        rule_classes=rule_classes,
        baseline=baseline,
        repo_root=repo_root,
        dataflow=dataflow,
        dataflow_rule_ids=dataflow_rule_ids,
        dataflow_cache_dir=dataflow_cache_dir,
    )
    return engine.run(paths)
