"""Unit-discipline rules (RL001, RL002).

Everything in this library is SI at every boundary (see
:mod:`repro.units`).  The two ways that discipline silently rots:

- magic scale factors (``1024**3``, ``86400``) re-deriving a constant
  that already has a name — one typo'd zero and a capacity claim is
  off by 1000x;
- mixing binary (``GiB``) and decimal (``GB``) size constants in one
  expression, which is exactly the 7.4% error class the paper's
  capacity arithmetic cannot absorb.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, RuleContext, numeric_value

#: Literal values that re-derive a named repro.units constant.  This
#: table IS the definition the rule compares against, so it must spell
#: the raw values out rather than import them.
UNIT_LITERALS: Dict[float, str] = {
    1024.0: "KiB",
    1024.0**2: "MiB",  # repro-lint: disable=RL001 -- the rule's own lookup table
    1024.0**3: "GiB",  # repro-lint: disable=RL001 -- the rule's own lookup table
    1024.0**4: "TiB",  # repro-lint: disable=RL001 -- the rule's own lookup table
    3600.0: "HOUR",
    86400.0: "DAY",
    604800.0: "7 * DAY",
    31536000.0: "365 * DAY",
    31557600.0: "YEAR",
    3.6e6: "KWH",
}

#: Exponent -> constant for ``1024 ** n`` / ``2 ** (10 n)`` rewrites.
_POW_1024: Dict[int, str] = {1: "KiB", 2: "MiB", 3: "GiB", 4: "TiB"}
_POW_2: Dict[int, str] = {10: "KiB", 20: "MiB", 30: "GiB", 40: "TiB"}

#: Keyword/attribute suffixes that mark a physical-quantity position.
QUANTITY_SUFFIXES: Tuple[str, ...] = (
    "_s",
    "_seconds",
    "_bytes",
    "_j",
    "_joules",
    "_w",
    "_watts",
)

BINARY_SIZE_NAMES: Set[str] = {"KiB", "MiB", "GiB", "TiB"}
DECIMAL_SIZE_NAMES: Set[str] = {"KB", "MB", "GB", "TB"}


def _is_quantity_position(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
    """Is ``node`` the value of a keyword / assignment whose name has a
    unit suffix (``capacity_bytes=...``, ``retention_s = ...``)?"""
    parent = parents.get(node)
    if isinstance(parent, ast.keyword) and parent.arg:
        return parent.arg.endswith(QUANTITY_SUFFIXES)
    if isinstance(parent, (ast.Assign, ast.AnnAssign)):
        targets = parent.targets if isinstance(parent, ast.Assign) else [parent.target]
        for target in targets:
            name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", "")
            if name.endswith(QUANTITY_SUFFIXES):
                return True
    return False


class MagicUnitLiteralRule(Rule):
    """RL001: a magic number re-derives a named ``repro.units`` constant."""

    rule_id = "RL001"
    summary = (
        "magic scale factor (1024**3, 86400, ...) in a physical-quantity "
        "position; use the repro.units constant"
    )

    def _pow_rewrite(self, node: ast.BinOp) -> Optional[str]:
        if not isinstance(node.op, ast.Pow):
            return None
        base = numeric_value(node.left)
        exp = numeric_value(node.right)
        if base is None or exp is None or exp != int(exp):
            return None
        # Exact compares are right here: `base` was read out of a source
        # literal, not computed.
        if base == 1024.0:  # repro-lint: disable=RL006
            return _POW_1024.get(int(exp))
        if base == 2.0:  # repro-lint: disable=RL006
            return _POW_2.get(int(exp))
        return None

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        if ctx.module == "repro.units":  # the definitions themselves
            return
        parents = ctx.parents
        for node in ctx.nodes:
            if isinstance(node, ast.BinOp):
                constant = self._pow_rewrite(node)
                if constant:
                    yield self.finding(
                        ctx,
                        node,
                        f"magic size factor "
                        f"{ast.unparse(node)!s}; repro.units already names it",
                        fix_hint=f"use repro.units.{constant.split()[0]} "
                        f"(i.e. `{constant}`)",
                    )
                continue
            if not isinstance(node, ast.Constant):
                continue
            value = numeric_value(node)
            if value is None or value not in UNIT_LITERALS:
                continue
            parent = parents.get(node)
            # Skip the exponent/base of a power we already flag whole.
            if isinstance(parent, ast.BinOp) and isinstance(parent.op, ast.Pow):
                continue
            in_arithmetic = isinstance(parent, ast.BinOp) and isinstance(
                parent.op, (ast.Mult, ast.Div, ast.FloorDiv, ast.Mod)
            )
            if in_arithmetic or _is_quantity_position(node, parents):
                constant = UNIT_LITERALS[value]
                yield self.finding(
                    ctx,
                    node,
                    f"magic unit literal {node.value!r} used as a scale "
                    "factor or physical quantity",
                    fix_hint=f"use repro.units ({constant})",
                )


class MixedSizeUnitsRule(Rule):
    """RL002: binary and decimal size constants mixed in one expression."""

    rule_id = "RL002"
    summary = "binary (GiB) and decimal (GB) size constants mixed in one expression"

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        if ctx.module == "repro.units":
            return
        parents = ctx.parents
        for node in ctx.nodes:
            # Only inspect maximal arithmetic expressions, once each.
            if not isinstance(node, ast.BinOp) or isinstance(
                parents.get(node), ast.BinOp
            ):
                continue
            names = {
                n.id
                for n in ast.walk(node)
                if isinstance(n, ast.Name)
            }
            binary = names & BINARY_SIZE_NAMES
            decimal = names & DECIMAL_SIZE_NAMES
            if binary and decimal:
                yield self.finding(
                    ctx,
                    node,
                    f"expression mixes binary ({', '.join(sorted(binary))}) and "
                    f"decimal ({', '.join(sorted(decimal))}) size constants "
                    "— a silent ~2-10% capacity error",
                    fix_hint="pick one base; convert explicitly at the boundary",
                )
