"""Observability determinism rule (RL011).

The obs contract (``docs/OBSERVABILITY.md``) is that a metrics
snapshot or trace is a *pure function of (config, seed)* — that is
what makes golden-snapshot tests and the serial-vs-parallel
bit-identity check possible.  The contract dies quietly the moment a
host-identity value leaks into a metric name, label, value, or span
attribute:

- wall-clock reads (``time.time()``, ``datetime.now()``) stamp every
  run differently (RL004 already bans these library-wide; RL011
  re-flags them at obs call sites with the obs-specific diagnosis);
- ``id()`` / ``hash()`` / ``uuid.*`` / ``os.getpid()`` /
  ``threading.get_ident()`` vary per process or per run
  (``PYTHONHASHSEED``), so a label like ``worker=id(engine)`` splits
  one logical series into a fresh series every run and no two
  snapshots ever merge or diff clean.

The rule fires on any call to an obs recording method — name/label
positions (``counter``/``gauge``/``histogram``/``info``/``begin``/
``span``/``instant``) and value positions (``add``/``set``/
``observe``/``observe_many``) — whose arguments contain one of the
forbidden calls, including inside f-strings.  Because those method
names are generic (sets also have ``.add``), the rule only runs in
files that import ``repro.obs`` (or live inside it); elsewhere the
identity builtins are legal Python.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, RuleContext, dotted_name
from repro.lint.rules.determinism import _WALL_CLOCK_CALLS

#: Obs methods taking metric/span names and ``**labels`` / ``**attrs``.
_NAME_METHODS: Set[str] = {
    "counter",
    "gauge",
    "histogram",
    "info",
    "begin",
    "span",
    "instant",
}

#: Obs methods taking recorded values.
_VALUE_METHODS: Set[str] = {"add", "set", "observe", "observe_many"}

_OBS_METHODS: Set[str] = _NAME_METHODS | _VALUE_METHODS

#: Per-process / per-run identity sources (beyond the wall clocks).
_IDENTITY_CALLS: Set[str] = {
    "id",
    "hash",
    "uuid.uuid1",
    "uuid.uuid3",
    "uuid.uuid4",
    "uuid.uuid5",
    "os.getpid",
    "os.getppid",
    "getpid",
    "threading.get_ident",
    "threading.current_thread",
}

_FORBIDDEN: Set[str] = _WALL_CLOCK_CALLS | _IDENTITY_CALLS


def _imports_obs(nodes: List[ast.AST]) -> bool:
    for node in nodes:
        if isinstance(node, ast.Import):
            if any(a.name.startswith("repro.obs") for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.startswith("repro.obs"):
                return True
    return False


class ObsDeterminismRule(Rule):
    """RL011: host identity or wall clock fed into an obs position."""

    rule_id = "RL011"
    summary = (
        "wall-clock or per-process identity (time.time, id, hash, uuid, "
        "getpid) in a repro.obs metric/trace position; snapshots must be "
        "pure functions of (config, seed)"
    )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        in_obs_package = bool(ctx.module) and ctx.module.startswith("repro.obs")
        if not in_obs_package and not _imports_obs(ctx.nodes):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            if method not in _OBS_METHODS:
                continue
            position = "label" if method in _NAME_METHODS else "value"
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            for argument in arguments:
                for inner in ast.walk(argument):
                    if not isinstance(inner, ast.Call):
                        continue
                    bad = dotted_name(inner.func)
                    if bad in _FORBIDDEN:
                        yield self.finding(
                            ctx,
                            inner,
                            f"{bad}() in a .{method}() {position} position — "
                            "the snapshot stops being a pure function of "
                            "(config, seed), so goldens, diffs and the "
                            "serial-vs-parallel identity all break",
                            fix_hint="derive labels/values from config or "
                            "seed; stamp times from simulated clocks only",
                        )
