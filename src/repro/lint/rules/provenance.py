"""Device-parameter provenance rule (RL008).

MRM hardware does not exist; every number under ``src/repro/devices/``
stands in for a datasheet the paper cites or a literature
demonstration.  A number with no provenance cannot be audited, and an
unauditable number in the catalog silently re-parameterises every
experiment built on it.  Two obligations:

- every ``TechnologyProfile(...)`` / ``.with_overrides(...)`` call must
  pass a non-empty ``source=`` citation;
- any other numeric-literal keyword argument or numeric class-attribute
  default in a devices module must carry a comment on its line saying
  where the number comes from (calls that already pass ``source=``
  cover all their arguments).

Zero-valued defaults (``0``, ``0.0``) are exempt: zero means "absent" /
"initial accounting state", not a measured device number.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, RuleContext, dotted_name, numeric_value

DEVICES_PACKAGE = "devices"


def _source_kwarg(call: ast.Call) -> Optional[ast.keyword]:
    for kw in call.keywords:
        if kw.arg == "source":
            return kw
    return None


def _is_profile_call(call: ast.Call) -> bool:
    name = dotted_name(call.func)
    return name.split(".")[-1] in ("TechnologyProfile", "with_overrides")


def _empty_source(kw: ast.keyword) -> bool:
    return isinstance(kw.value, ast.Constant) and not str(kw.value.value or "").strip()


class DeviceProvenanceRule(Rule):
    """RL008: device numbers without a citation."""

    rule_id = "RL008"
    summary = (
        "device parameter without provenance: profile missing source=, or "
        "numeric constant without a citation comment (devices/ only)"
    )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        if ctx.in_package != DEVICES_PACKAGE:
            return
        for node in ctx.nodes:
            if isinstance(node, ast.Call) and _is_profile_call(node):
                kw = _source_kwarg(node)
                if kw is None or _empty_source(kw):
                    yield self.finding(
                        ctx,
                        node,
                        f"{dotted_name(node.func)}(...) without a source= "
                        "citation; these numbers stand in for hardware that "
                        "does not exist",
                        fix_hint="add source=\"<datasheet / paper ref>\"",
                    )
                continue
            if isinstance(node, ast.Call):
                yield from self._check_numeric_kwargs(ctx, node)
            elif isinstance(node, ast.ClassDef):
                yield from self._check_class_defaults(ctx, node)

    def _check_numeric_kwargs(self, ctx: RuleContext, call: ast.Call) -> Iterator[Finding]:
        if _source_kwarg(call) is not None:
            return  # the call cites its numbers wholesale
        for kw in call.keywords:
            if kw.arg is None:
                continue
            value = numeric_value(kw.value)
            if value is None or value == 0:
                continue
            line = getattr(kw.value, "lineno", 0)
            if not ctx.line_has_comment(line):
                yield self.finding(
                    ctx,
                    kw.value,
                    f"numeric device parameter {kw.arg}={ast.unparse(kw.value)} "
                    "has no citation comment on its line",
                    fix_hint="append `# <where the number comes from>`",
                )

    def _check_class_defaults(self, ctx: RuleContext, cls: ast.ClassDef) -> Iterator[Finding]:
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
                continue
            value = numeric_value(stmt.value)
            if value is None or value == 0:
                continue
            line = stmt.value.lineno
            target = getattr(stmt.target, "id", "?")
            if not ctx.line_has_comment(line):
                yield self.finding(
                    ctx,
                    stmt.value,
                    f"numeric field default {target}={ast.unparse(stmt.value)} "
                    "has no citation comment on its line",
                    fix_hint="append `# <where the number comes from>`",
                )
