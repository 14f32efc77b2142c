"""Interprocedural dataflow analysis for repro-lint (RL012, RL013).

The per-file rules see one expression at a time; a unit slip can
*flow*: a function returns decimal GB into a caller that treats it as
GiB, or a caller passes seconds into a ``*_bytes`` parameter.  This
package builds a whole-program view on top of the per-file parses, and
is the only interprocedural pass:

- :mod:`~repro.lint.dataflow.extract` reduces each file to a
  :class:`~repro.lint.dataflow.model.FileSummary` — functions, their
  parameter/return dimensions and byte bases, dataclass fields and
  resolved call sites with per-argument evidence;
- :mod:`~repro.lint.dataflow.linker` stitches summaries into a
  project symbol table (chasing re-export aliases);
- :mod:`~repro.lint.dataflow.rules` runs the two interprocedural
  rules over the linked program.

Entry point: :func:`run_dataflow`, called by the lint engine on the
trees it has already parsed.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Set, Tuple

from repro.lint.dataflow.extract import extract_summary
from repro.lint.dataflow.linker import Program
from repro.lint.dataflow.rules import (
    DATAFLOW_RULE_IDS,
    check_program,
    dataflow_catalog,
)
from repro.lint.findings import Finding, sort_findings

#: One input file: (display_path, module, source, parsed tree).
FileEntry = Tuple[str, str, str, ast.Module]


def run_dataflow(
    entries: Sequence[FileEntry], rule_ids: Optional[Set[str]] = None
) -> List[Finding]:
    """Summarize ``entries``, link them, and run the selected dataflow
    rules (None: both).  Findings come back sorted."""
    summaries = [
        extract_summary(display_path, module, source, tree)
        for display_path, module, source, tree in entries
    ]
    return sort_findings(check_program(Program(summaries), rule_ids))


__all__ = [
    "DATAFLOW_RULE_IDS",
    "dataflow_catalog",
    "run_dataflow",
]
