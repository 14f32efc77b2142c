"""Orchestration: summarize, link, check.

:func:`run_dataflow` is the lint engine's path into the dataflow
layer.  It takes the files the engine has already parsed, so every
tree is parsed once per run and summarized once per run.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Set, Tuple

from repro.lint.dataflow.extract import extract_summary
from repro.lint.dataflow.linker import Program
from repro.lint.dataflow.rules import check_program
from repro.lint.findings import Finding, sort_findings

#: One input file: (display_path, module, source, parsed tree).
FileEntry = Tuple[str, str, str, ast.Module]


def run_dataflow(
    entries: Sequence[FileEntry],
    rule_ids: Optional[Set[str]] = None,
    critical_modules: Optional[Set[str]] = None,
) -> List[Finding]:
    """Summarize ``entries``, link them, and run RL012-RL016.

    ``rule_ids`` selects rules (None: all five); ``critical_modules``
    scopes RL016 to the determinism-critical set (None: every module).
    Findings come back sorted.
    """
    summaries = [
        extract_summary(display_path, module, source, tree)
        for display_path, module, source, tree in entries
    ]
    return sort_findings(
        check_program(Program(summaries), rule_ids, critical_modules)
    )
