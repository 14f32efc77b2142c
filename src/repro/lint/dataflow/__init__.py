"""Interprocedural dataflow analysis for repro-lint (RL012-RL016).

The per-file rules (RL001-RL011) see one expression at a time; the
failure modes that corrupt the paper's numbers *flow*: a function
returns decimal GB into a caller that treats it as GiB, an RNG is
seeded locally instead of deriving from the sweep's ``SeedSequence``
root, or a dict-ordered loop calls a helper that adds floats into
shared state.  This package builds a whole-program view on top of the
per-file parses, and is the only interprocedural pass:

- :mod:`~repro.lint.dataflow.extract` reduces each file to a
  :class:`~repro.lint.dataflow.model.FileSummary` — functions, their
  parameter/return dimensions, dataclass fields, resolved call sites
  (tagged with their loop's iteration order), RNG constructions,
  wall-clock calls, float accumulations and ``self.<attr>`` bindings;
- :mod:`~repro.lint.dataflow.cache` content-hash caches those
  summaries so the in-pytest repo-tree lint stays fast;
- :mod:`~repro.lint.dataflow.linker` stitches summaries into a
  project symbol table and call graph (chasing re-export aliases);
- :mod:`~repro.lint.dataflow.rules` runs the five interprocedural
  rules over the linked program.

Entry point: :func:`run_dataflow` (used by the lint engine) or
:func:`analyze_tree` (standalone, parses files itself — used by the
timing tests and the CI dataflow step).
"""

from __future__ import annotations

from repro.lint.dataflow.model import DATAFLOW_SCHEMA
from repro.lint.dataflow.rules import (
    DATAFLOW_RULE_IDS,
    dataflow_catalog,
)
from repro.lint.dataflow.run import DataflowStats, analyze_tree, run_dataflow

__all__ = [
    "DATAFLOW_SCHEMA",
    "DATAFLOW_RULE_IDS",
    "DataflowStats",
    "analyze_tree",
    "dataflow_catalog",
    "run_dataflow",
]
