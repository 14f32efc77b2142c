"""Orchestration: summarize (with caching), link, check.

Two entry points:

- :func:`run_dataflow` — the lint engine's path.  Takes files the
  engine has already parsed (re-using its trees on cold extraction)
  and returns findings plus cache statistics.
- :func:`analyze_tree` — standalone.  Discovers and parses files
  itself; used by the CI dataflow step and the warm-vs-cold timing
  tests, where "cold" must include the parse cost a fresh process
  would pay.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.dataflow.cache import SummaryCache, summary_key
from repro.lint.dataflow.extract import extract_summary
from repro.lint.dataflow.linker import Program
from repro.lint.dataflow.model import FileSummary
from repro.lint.dataflow.rules import check_program
from repro.lint.findings import Finding, sort_findings


@dataclass
class DataflowStats:
    """What one dataflow pass did (surfaced by the CLI and CI)."""

    files: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


#: One input file: (display_path, module, source, optional parsed tree).
FileEntry = Tuple[str, str, str, Optional[ast.Module]]


def summarize_files(
    entries: Iterable[FileEntry], cache: SummaryCache
) -> List[FileSummary]:
    summaries: List[FileSummary] = []
    for display_path, module, source, tree in entries:
        key = summary_key(source, module, display_path)
        summary = cache.get(key)
        if summary is None:
            try:
                summary = extract_summary(display_path, module, source, tree)
            except SyntaxError:
                continue  # the engine reports parse errors separately
            cache.put(key, summary)
        summaries.append(summary)
    return summaries


def run_dataflow(
    entries: Sequence[FileEntry],
    cache_dir: Optional[Path] = None,
    rule_ids: Optional[Set[str]] = None,
    critical_modules: Optional[Set[str]] = None,
) -> Tuple[List[Finding], DataflowStats]:
    """Summarize ``entries`` (cache-aware), link, and run RL012-RL016.

    ``critical_modules`` scopes RL016 to the determinism-critical set
    (None: every module).  Findings come back sorted and with
    ``source_line`` filled from the entry sources, so suppression and
    baseline fingerprinting work exactly as they do for per-file rules.
    """
    cache = SummaryCache(cache_dir)
    summaries = summarize_files(entries, cache)
    program = Program(summaries)
    findings = check_program(program, rule_ids, critical_modules)

    lines_by_path = {
        display_path: source.splitlines()
        for display_path, _, source, _ in entries
    }
    located: List[Finding] = []
    for finding in findings:
        lines = lines_by_path.get(finding.path, [])
        source_line = (
            lines[finding.line - 1] if 1 <= finding.line <= len(lines) else ""
        )
        located.append(
            Finding(
                rule_id=finding.rule_id,
                severity=finding.severity,
                path=finding.path,
                line=finding.line,
                col=finding.col,
                message=finding.message,
                fix_hint=finding.fix_hint,
                source_line=source_line,
            )
        )
    stats = DataflowStats(
        files=len(summaries),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )
    return sort_findings(located), stats


def analyze_tree(
    paths: Sequence[Path],
    cache_dir: Optional[Path] = None,
    rule_ids: Optional[Set[str]] = None,
    repo_root: Optional[Path] = None,
) -> Tuple[List[Finding], DataflowStats]:
    """Standalone dataflow run: discover, read, summarize, check.

    Trees are passed as None, so extraction parses each file only on a
    cache miss — on a warm cache the parse (and every AST walk) is
    skipped entirely, which is what makes the warm run a small fraction
    of the cold one.
    """
    # Imported here: engine imports this package, not the reverse.
    from repro.lint.engine import _display_path, discover_files
    from repro.lint.imports import module_name_for

    entries: List[FileEntry] = []
    for path in discover_files([Path(p) for p in paths]):
        display = _display_path(path, repo_root)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue
        module = module_name_for(path) or ""
        entries.append((display, module, source, None))
    return run_dataflow(entries, cache_dir=cache_dir, rule_ids=rule_ids)
