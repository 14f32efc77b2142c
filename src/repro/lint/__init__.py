"""repro-lint: an AST-based invariant checker for this repository.

The paper's evaluation is quantitative modeling end to end, so the bugs
that matter here are not crashes — they are silent unit slips (GiB vs
GB, seconds vs hours), nondeterministic simulation runs, float-equality
surprises, and device numbers with no provenance.  ``repro.lint``
parses the codebase with :mod:`ast` and enforces those invariants as
pluggable rules (``RL001``...), each with a fix hint.  Every rule is an
error: a finding fails the run.

Usage::

    python -m repro.lint src/repro          # or: repro-lint src/repro
    python -m repro.lint --list-rules

The only way to silence a finding is an inline pragma at the site
(``# repro-lint: disable=RL003 -- reason``).  See
``docs/STATIC_ANALYSIS.md`` for the rule catalog.
"""

from __future__ import annotations

from repro.lint.findings import Finding
from repro.lint.engine import lint_paths
from repro.lint.rules import RULE_CLASSES, Rule, RuleContext, get_rule_classes

__all__ = [
    "Finding",
    "lint_paths",
    "Rule",
    "RuleContext",
    "RULE_CLASSES",
    "get_rule_classes",
]
