"""Rule plumbing: the context a rule sees and the base class it extends.

A rule is a class with a ``rule_id`` (``RL001``...), a one-line
``summary`` (shown by ``--list-rules``) and a ``check`` method yielding
:class:`~repro.lint.findings.Finding` objects.  Rules are stateless
between files; everything file- or repo-scoped arrives in the
:class:`RuleContext`, which walks each tree once and shares the walk
with every rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.lint.findings import Finding


@dataclass
class RuleContext:
    """Everything a rule may consult while checking one file."""

    path: str
    tree: ast.Module
    lines: Sequence[str]
    #: Dotted module name (``repro.sim.kernel``) or None outside repro.
    module: Optional[str] = None
    #: Modules under the determinism contract (see repro.lint.imports).
    determinism_critical: Set[str] = field(default_factory=set)

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of :attr:`tree` in ``ast.walk`` order, walked once
        per file rather than once per rule."""
        return list(ast.walk(self.tree))

    @cached_property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child node -> parent node over the whole tree."""
        parents: Dict[ast.AST, ast.AST] = {}
        for node in self.nodes:
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        return parents

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    @property
    def is_determinism_critical(self) -> bool:
        return self.module is not None and self.module in self.determinism_critical

    @property
    def in_package(self) -> str:
        """The sub-package under repro (``sim``, ``devices``, ...)."""
        if not self.module or not self.module.startswith("repro."):
            return ""
        return self.module.split(".")[1] if "." in self.module else ""

    def line_has_comment(self, lineno: int) -> bool:
        """True if the physical line carries a ``#`` comment (cheap
        textual check; good enough for provenance annotations)."""
        return "#" in self.source_line(lineno)


class Rule:
    """Base class for all lint rules."""

    rule_id: str = "RL000"
    summary: str = ""

    def check(self, ctx: RuleContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(
        self,
        ctx: RuleContext,
        node: ast.AST,
        message: str,
        fix_hint: str = "",
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule_id=self.rule_id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            fix_hint=fix_hint or f"or suppress: # repro-lint: disable={self.rule_id}",
        )


def dotted_name(node: ast.AST) -> str:
    """Render ``a.b.c`` attribute/name chains; '' for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def numeric_value(node: ast.AST) -> Optional[float]:
    """The numeric value of a literal or +/- of one, else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        inner = numeric_value(node.operand)
        if inner is None:
            return None
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return float(node.value)
    return None
