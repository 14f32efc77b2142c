"""Parallelism rule (RL009).

:mod:`repro.parallel` is the library's *only* sanctioned fan-out
surface: it spawns per-point seeds from one root ``SeedSequence`` and
collects results in submission order, which is what keeps parallel
sweeps bit-identical to serial ones.  Ad-hoc ``multiprocessing`` or
``ProcessPoolExecutor`` use anywhere else reintroduces exactly the
hazards the engine exists to remove — worker-order-dependent results,
unseeded per-process RNG state, and pickling surprises — without
tripping any test.

RL009 therefore flags imports of :mod:`multiprocessing` (and its
submodules), imports of ``ProcessPoolExecutor`` from
:mod:`concurrent.futures`, and direct ``ProcessPoolExecutor(...)``
construction, everywhere except inside ``repro.parallel`` itself.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, RuleContext, dotted_name

_ALLOWED_PACKAGE = "repro.parallel"

_FIX_HINT = (
    "route the fan-out through repro.parallel.run_sweep "
    "(deterministic per-point seeds, order-preserving collection)"
)


def _in_allowed_package(ctx: RuleContext) -> bool:
    module = ctx.module or ""
    return module == _ALLOWED_PACKAGE or module.startswith(
        _ALLOWED_PACKAGE + "."
    )


class AdHocParallelismRule(Rule):
    """RL009: process fan-out outside the sanctioned sweep engine."""

    rule_id = "RL009"
    summary = (
        "ProcessPoolExecutor/multiprocessing use outside repro.parallel — "
        "unseeded ad-hoc fan-out breaks the determinism contract"
    )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        if _in_allowed_package(ctx):
            return
        for node in ctx.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "multiprocessing":
                        yield self.finding(
                            ctx,
                            node,
                            f"import of {alias.name!r} outside "
                            f"{_ALLOWED_PACKAGE}",
                            fix_hint=_FIX_HINT,
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[0] == "multiprocessing":
                    yield self.finding(
                        ctx,
                        node,
                        f"import from {module!r} outside {_ALLOWED_PACKAGE}",
                        fix_hint=_FIX_HINT,
                    )
                elif module == "concurrent.futures" and any(
                    alias.name == "ProcessPoolExecutor"
                    for alias in node.names
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "import of ProcessPoolExecutor outside "
                        f"{_ALLOWED_PACKAGE}",
                        fix_hint=_FIX_HINT,
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func) or ""
                if name == "ProcessPoolExecutor" or name.endswith(
                    ".ProcessPoolExecutor"
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{name}(...) constructed outside {_ALLOWED_PACKAGE}",
                        fix_hint=_FIX_HINT,
                    )
