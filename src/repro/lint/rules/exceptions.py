"""Exception-hygiene rule (RL010).

The fault-injection layer's contract is that failures *propagate with
context* (see :class:`repro.sim.SimProcessError` and
``docs/ROBUSTNESS.md``): a fault that disappears into a silent handler
produces a run that "succeeds" with wrong numbers — the worst failure
mode a reproduction can have.  Inside determinism-critical modules
(the RL005 scope: the sim kernel plus everything that runs inside or
drives it) this rule flags:

- bare ``except:`` — catches everything including ``KeyboardInterrupt``
  and ``SystemExit``, and hides which failures the author anticipated;
- swallowed broad handlers — ``except Exception:`` / ``BaseException:``
  (alone or in a tuple) whose body neither re-raises nor does any work
  (only ``pass`` / ``...`` / ``continue`` / a docstring).

Narrow swallows (``except OSError: pass`` around a best-effort close)
are legal: naming the type documents exactly which failure is safe to
ignore.  Broad handlers that *handle* — log, wrap-and-raise, record a
failure result — are also legal; it is the catch-everything-do-nothing
combination that erases faults.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, RuleContext, dotted_name

#: Exception names too broad to swallow silently.
BROAD_TYPES = {"Exception", "BaseException"}


def _caught_names(handler: ast.ExceptHandler) -> List[str]:
    """Type names a handler catches ('' entries for non-name nodes)."""
    node = handler.type
    if node is None:
        return []
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    return [dotted_name(e).split(".")[-1] for e in elts]


def _is_inert(body: List[ast.stmt]) -> bool:
    """True when the handler body does nothing with the exception:
    only ``pass``, ``...``, ``continue`` or bare string constants."""
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


class SwallowedExceptionRule(Rule):
    """RL010: bare ``except:`` / silently swallowed broad handlers in
    determinism-critical modules."""

    rule_id = "RL010"
    summary = (
        "bare `except:` or a swallowed broad handler (`except Exception: "
        "pass`) in a determinism-critical module; faults must propagate "
        "with context, not vanish"
    )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        if not ctx.is_determinism_critical:
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare `except:` catches everything (KeyboardInterrupt "
                    "and SystemExit included) and hides which failures "
                    "were anticipated",
                    fix_hint="name the exception types this site can "
                    "actually handle",
                )
            elif (
                set(_caught_names(node)) & BROAD_TYPES
                and _is_inert(node.body)
            ):
                yield self.finding(
                    ctx,
                    node,
                    "broad handler swallows the exception: a fault erased "
                    "here yields a run that 'succeeds' with wrong numbers",
                    fix_hint="narrow the type, or handle it (log, record "
                    "a failed result, wrap and re-raise)",
                )
