"""Float-hygiene rules (RL006, RL016).

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

RL016 guards the other float hazard, summation order.  Float addition
is not associative, so a sum taken over a dict (insertion history) or a
set (hash order) depends on how the container was filled.  In a
determinism-critical module, a float accumulation whose nearest
enclosing ``for`` iterates in dict or set order is flagged; iterate
``sorted(...)`` instead.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

# Read at call time only: dimensions imports rules.base, so this module
# can load while dimensions is still initializing.
from repro.lint.dataflow import dimensions as dims
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


# Iteration-order classes of a ``for`` loop's iterable (RL016) -----------
#: Provably canonical: ``sorted(...)``.
ITER_SORTED = "sorted"
#: Fixed by construction: ``range``, list/tuple/dict literals.
ITER_STABLE = "stable"
#: Dict insertion order: stable per process, but it depends on arrival
#: order, which differs between serial and parallel producers.
ITER_DICT = "dict-order"
#: Hash order: varies with PYTHONHASHSEED.
ITER_SET = "set-order"
#: Cannot classify (a bare name, an opaque call): never flagged.
ITER_UNKNOWN = "unknown"

#: Iterable wrappers that keep the inner iterable's order class.
_ORDER_PRESERVING_WRAPPERS: Set[str] = {"enumerate", "list", "tuple", "reversed", "iter"}

#: Order class of an iterable built by a call, by the call's tail name.
_ORDER_OF_CALL: Dict[str, str] = {
    "sorted": ITER_SORTED,
    "range": ITER_STABLE,
    "items": ITER_DICT,
    "values": ITER_DICT,
    "keys": ITER_DICT,
    "set": ITER_SET,
    "frozenset": ITER_SET,
}


def _call_tail(call: ast.Call) -> str:
    """Last name component of the callee.  Read straight off the node:
    ``dotted_name`` is '' when the receiver is itself a call
    (``snap.get("counters", {}).items()``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def classify_iter(node: ast.AST) -> str:
    """Order class of a ``for`` loop's iterable."""
    while (
        isinstance(node, ast.Call)
        and _call_tail(node) in _ORDER_PRESERVING_WRAPPERS
        and node.args
    ):
        node = node.args[0]
    if isinstance(node, ast.Call):
        return _ORDER_OF_CALL.get(_call_tail(node), ITER_UNKNOWN)
    if isinstance(node, (ast.Set, ast.SetComp)):
        return ITER_SET
    if isinstance(node, (ast.List, ast.Tuple, ast.ListComp, ast.GeneratorExp, ast.Dict)):
        # A dict literal iterates in source order.
        return ITER_STABLE
    return ITER_UNKNOWN


def _float_evidence(target: ast.AST, value: ast.AST) -> str:
    """Why an accumulation is believed to involve floats; '' when the
    evidence points at integer (associative) arithmetic instead."""
    for sub in [target, *ast.walk(value)]:
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return "float-literal"
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
            return "division"
        while isinstance(sub, ast.Subscript):
            sub = sub.value
        if isinstance(sub, (ast.Name, ast.Attribute)):
            name = sub.attr if isinstance(sub, ast.Attribute) else sub.id
            dim = dims.dimension_of_name(name)
            if dim in dims.FLOAT_DIMENSIONS:
                return f"dimension:{dim}"
    return ""


def _accumulation(node: ast.AST) -> Optional[Tuple[ast.AST, ast.AST]]:
    """(target, added value) of ``x += e`` / ``x -= e`` or of the dict
    reduction in disguise ``d[k] = d.get(k, 0.0) + e``; else None."""
    if isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
        return node.target, node.value
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
        return None
    target = node.targets[0]
    if not isinstance(target, ast.Subscript):
        return None
    base = ast.dump(target.value)
    subs = list(ast.walk(node.value))
    adds = any(
        isinstance(sub, ast.BinOp) and isinstance(sub.op, (ast.Add, ast.Sub))
        for sub in subs
    )
    reads_base = any(
        (isinstance(sub, ast.Subscript) and ast.dump(sub.value) == base)
        or (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "get"
            and ast.dump(sub.func.value) == base
        )
        for sub in subs
    )
    return (target, node.value) if adds and reads_base else None


class OrderSensitiveReductionRule(Rule):
    """RL016: a float reduction over dict- or set-ordered iteration."""

    rule_id = "RL016"
    summary = (
        "order-sensitive float reduction: floats accumulated in a loop "
        "over dict/set-ordered iteration in a determinism-critical module "
        "— non-associative addition makes the result depend on iteration "
        "order, breaking serial/parallel bit-identity"
    )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        if not ctx.is_determinism_critical:
            return
        for node in ctx.nodes:
            accumulation = _accumulation(node)
            if accumulation is None:
                continue
            loop = self._enclosing_loop(ctx, node)
            if loop is None:
                continue
            order = classify_iter(loop.iter)
            evidence = _float_evidence(*accumulation)
            if order in (ITER_DICT, ITER_SET) and evidence:
                yield self.finding(
                    ctx,
                    node,
                    f"order-sensitive float reduction: "
                    f"{ast.unparse(accumulation[0])} accumulates ({evidence}) "
                    f"over {ast.unparse(loop.iter)} ({order}) — float "
                    "addition is not associative, so the result depends on "
                    "iteration order",
                    fix_hint="iterate in canonical order (sorted(...)) or "
                    "accumulate order-insensitively (integers, exact merges)",
                )

    @staticmethod
    def _enclosing_loop(ctx: RuleContext, node: ast.AST) -> Optional[ast.For]:
        """The nearest ``for`` around ``node`` inside its own function."""
        current = ctx.parents.get(node)
        while current is not None and not isinstance(current, ast.For):
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return None
            current = ctx.parents.get(current)
        return current
