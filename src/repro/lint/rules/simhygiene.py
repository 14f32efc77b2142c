"""Sim-process hygiene rule (RL007).

Simulation processes are generators driven by the kernel; each
``yield`` must hand the kernel a command (``Timeout``, ``WakeAt``,
``Wait``, a ``Process`` or an ``Event``).  Two bugs
this rule catches statically:

- a process generator that yields a bare literal (``yield 5`` meaning
  ``yield Timeout(5)``) — a ``TypeError`` at runtime, but only on the
  path that executes it;
- blocking calls (``time.sleep``, ``input``, ``subprocess.run``...)
  anywhere in library code: between events, callbacks run at a frozen
  simulated instant, so real-world blocking is always a bug.

A generator counts as a *process* only if it also yields at least one
recognised command constructor — plain data generators (trace readers,
token streams) are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, RuleContext, dotted_name

#: Constructors whose presence marks a generator as a sim process.
COMMAND_CONSTRUCTORS: Set[str] = {
    "Timeout",
    "WakeAt",
    "Wait",
}

#: Calls that block the real world (never legal in model code).
BLOCKING_CALLS: Set[str] = {
    "time.sleep",
    "input",
    "os.system",
    "os.popen",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "socket.create_connection",
    "urllib.request.urlopen",
    "requests.get",
    "requests.post",
}


def _yields_of(func: ast.AST) -> List[ast.expr]:
    """Yield expressions belonging to ``func`` itself (not to nested
    function definitions)."""
    yields: List[ast.expr] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Yield):
            yields.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return yields


class SimProcessHygieneRule(Rule):
    """RL007: process generators yielding non-commands; blocking calls."""

    rule_id = "RL007"
    summary = (
        "sim process yields a non-command literal, or model code calls a "
        "blocking function (time.sleep, input, subprocess)"
    )

    def _check_generator(self, ctx: RuleContext, func: ast.AST) -> Iterator[Finding]:
        yields = _yields_of(func)
        if not yields:
            return
        is_process = any(
            isinstance(y.value, ast.Call)
            and dotted_name(y.value.func).split(".")[-1] in COMMAND_CONSTRUCTORS
            for y in yields
        )
        if not is_process:
            return
        for y in yields:
            value = y.value
            if value is None:
                yield self.finding(
                    ctx,
                    y,
                    "bare `yield` in a sim process; the kernel needs a "
                    "command to know what to wait for",
                    fix_hint="yield Timeout(0.0) to cede the current instant",
                )
            elif isinstance(value, ast.Constant) and value.value is not None:
                yield self.finding(
                    ctx,
                    y,
                    f"sim process yields the literal {value.value!r}; the "
                    "kernel raises TypeError on non-command values",
                    fix_hint="wrap it: yield Timeout(delay) / Wait(event)",
                )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_generator(ctx, node)
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if BLOCKING_CALLS & {name, ctx.qualified_name(node.func)}:
                    yield self.finding(
                        ctx,
                        node,
                        f"{name}() blocks the real world; between events, "
                        "model code runs at a frozen simulated instant",
                        fix_hint="model the delay with Timeout / "
                        "Simulator.schedule instead",
                    )
