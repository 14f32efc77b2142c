"""Resilience hygiene rule (RL020).

Serving and fault-injection code retries, hedges and waits; each of
those needs a budget, or one stuck dependency turns into a silent hang.
Two patterns this rule flags inside ``repro.inference`` and
``repro.faults`` modules:

- **unbounded retry loops** — a ``while True:`` whose body manipulates
  retry state (names containing ``retry``/``retries``/``attempt``/
  ``backoff``) but never compares that state against a budget and never
  raises: nothing in the loop can conclude "give up";
- **blocking waits without a timeout** — calls named ``wait`` /
  ``wait_for`` / ``acquire`` that pass neither a ``timeout=`` /
  ``deadline=`` keyword nor a positional timeout: against a crashed
  peer these block forever.  (The sim kernel's ``yield Wait(event)``
  command objects are not calls and are unaffected.)

Retry loops bounded structurally (``for attempt in range(n)``) never
match — the pattern is specifically the ``while True`` shape whose exit
condition lives nowhere.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, RuleContext, dotted_name

#: Sub-packages under ``repro`` this rule applies to.
RESILIENCE_PACKAGES: Set[str] = {"inference", "faults"}

#: Identifier fragments that mark retry/backoff state.
RETRY_FRAGMENTS = ("retry", "retries", "attempt", "backoff")

#: Call names that block until an external party acts.
BLOCKING_WAIT_NAMES: Set[str] = {"wait", "wait_for", "acquire"}

#: Keywords that bound a blocking wait.
TIMEOUT_KEYWORDS: Set[str] = {"timeout", "deadline", "timeout_s", "deadline_s"}


def _names_in(node: ast.AST) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _is_retry_name(name: str) -> bool:
    lowered = name.lower()
    return any(fragment in lowered for fragment in RETRY_FRAGMENTS)


def _loop_body_nodes(loop: ast.While) -> List[ast.AST]:
    """Every node in the loop body, excluding nested function defs
    (their control flow is not this loop's exit condition)."""
    nodes: List[ast.AST] = []
    stack: List[ast.AST] = list(loop.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        nodes.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return nodes


class UnboundedResilienceRule(Rule):
    """RL020: unbounded retry loops / blocking waits without timeout in
    serving and fault code."""

    rule_id = "RL020"
    summary = (
        "serving/faults code retries without a budget (while True over "
        "retry state with no bound check) or blocks without a timeout "
        "(wait/wait_for/acquire with no timeout= or deadline=)"
    )

    def _check_retry_loop(
        self, ctx: RuleContext, loop: ast.While
    ) -> Iterator[Finding]:
        test = loop.test
        if not (isinstance(test, ast.Constant) and test.value is True):
            return
        body = _loop_body_nodes(loop)
        retry_names = {
            name for node in body for name in _names_in(node)
            if _is_retry_name(name)
        }
        if not retry_names:
            return
        # A budget exists if any comparison in the loop involves retry
        # state, or the loop can raise its way out.
        for node in body:
            if isinstance(node, ast.Raise):
                return
            if isinstance(node, ast.Compare) and any(
                _is_retry_name(name) for name in _names_in(node)
            ):
                return
        yield self.finding(
            ctx,
            loop,
            f"`while True` retry loop over {sorted(retry_names)[0]!r} "
            "never compares its retry state against a budget and never "
            "raises; a persistent failure loops forever",
            fix_hint="bound it: `while attempts < max_retries` (or raise "
            "after a budget check)",
        )

    def _check_blocking_wait(
        self, ctx: RuleContext, call: ast.Call
    ) -> Iterator[Finding]:
        name = dotted_name(call.func)
        if not name:
            return
        leaf = name.split(".")[-1]
        if leaf not in BLOCKING_WAIT_NAMES:
            return
        if any(
            kw.arg in TIMEOUT_KEYWORDS for kw in call.keywords if kw.arg
        ):
            return
        # A positional timeout also bounds the wait: wait(5.0),
        # acquire(True, 5.0), wait_for(pred, 5.0).
        expected_positional = 2 if leaf == "wait_for" else 1
        if len(call.args) >= expected_positional:
            return
        yield self.finding(
            ctx,
            call,
            f"{name}() blocks with no timeout; against a crashed peer "
            "this waits forever",
            fix_hint=f"pass timeout=/deadline= to {leaf}() and handle "
            "the expiry",
        )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        if ctx.in_package not in RESILIENCE_PACKAGES:
            return
        for node in ctx.nodes:
            if isinstance(node, ast.While):
                yield from self._check_retry_loop(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_blocking_wait(ctx, node)
