"""Float-hygiene rule (RL006).

``==``/``!=`` against a float literal is almost always a latent bug in
numerical code: the value being compared was computed, and computed
floats hit exact constants only by luck.  Where an exact sentinel is
genuinely meant (an input validated to lie in [0, 1] being tested at
its endpoints), prefer an ordered comparison (``<=``/``>=``) which says
the same thing without the fragility — or suppress with a justification.

Whitelisted idioms (not flagged):

- comparisons inside ``assert`` statements (tests and invariants
  legitimately pin exact values);
- ``math.isclose(...)`` / ``np.isclose(...)`` are calls, not
  comparisons, so they never trigger.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, RuleContext


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        return _is_float_literal(node.operand)
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _nodes_inside_asserts(nodes: List[ast.AST]) -> Set[int]:
    inside: Set[int] = set()
    for node in nodes:
        if isinstance(node, ast.Assert):
            for sub in ast.walk(node):
                inside.add(id(sub))
    return inside


class FloatEqualityRule(Rule):
    """RL006: ``==``/``!=`` with a float literal operand."""

    rule_id = "RL006"
    summary = "float equality comparison (== / != with a float literal)"

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        in_assert = _nodes_inside_asserts(ctx.nodes)
        for node in ctx.nodes:
            if not isinstance(node, ast.Compare) or id(node) in in_assert:
                continue
            operands = [node.left, *node.comparators]
            for op, right in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if any(_is_float_literal(side) for side in operands):
                    literal = next(
                        ast.unparse(s) for s in operands if _is_float_literal(s)
                    )
                    yield self.finding(
                        ctx,
                        node,
                        f"exact float comparison against {literal}; computed "
                        "floats rarely hit exact constants",
                        fix_hint="use an ordered guard (<=, >=), math.isclose, "
                        "or an explicit tolerance",
                    )
                    break
