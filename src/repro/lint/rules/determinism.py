"""Determinism rules (RL003-RL005).

The sim kernel documents determinism as a contract ("same schedule
order in, same execution order out") and every experiment's
reproducibility leans on it.  Three ways Python code breaks the
contract without failing a single test:

- RL003: drawing randomness from hidden global state (``random.*``
  module functions, ``random.Random()`` with no seed, numpy's legacy
  ``np.random.*`` globals, ``default_rng()`` with no seed);
- RL004: reading the wall clock (``time.time()``, ``datetime.now()``)
  — simulated time is the only clock a model may consult;
- RL005: iterating a ``set`` (hash-order, perturbed by
  ``PYTHONHASHSEED``) where the iteration order can reach an
  observable result.

RL003/RL004 apply to the whole library — it is a deterministic
modeling library; code that genuinely needs entropy must take an
explicit seeded generator.  RL005 applies only to determinism-critical
modules (see :mod:`repro.lint.imports`).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, RuleContext, dotted_name

#: numpy.random attributes that are constructors, not global draws.
_NUMPY_SEEDABLE: Set[str] = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
    "RandomState",  # still flagged separately if called without a seed
}

_WALL_CLOCK_CALLS: Set[str] = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
}


def _call_has_seed(node: ast.Call) -> bool:
    """True if the call passes any positional arg or a seed= kwarg."""
    if node.args:
        return True
    return any(kw.arg in ("seed", "x") for kw in node.keywords)


class UnseededRandomRule(Rule):
    """RL003: randomness drawn from hidden global state."""

    rule_id = "RL003"
    summary = (
        "unseeded randomness: module-level random.*, random.Random()/"
        "default_rng() without a seed, or numpy legacy np.random.* globals"
    )

    def __init__(self) -> None:
        self._random_aliases: Set[str] = set()

    def _scan_imports(self, ctx: RuleContext) -> Set[str]:
        """Names bound by ``from random import Random [as R]``."""
        aliases: Set[str] = set()
        for node in ctx.nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name == "Random":
                        aliases.add(alias.asname or alias.name)
        return aliases

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        random_ctor_aliases = self._scan_imports(ctx)
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if not name:
                continue
            # random.Random() / Random() without a seed argument.
            if name in ("random.Random", *random_ctor_aliases):
                if not _call_has_seed(node):
                    yield self.finding(
                        ctx,
                        node,
                        f"{name}() constructed without a seed — seeded from "
                        "OS entropy, so runs are not reproducible",
                        fix_hint="pass an explicit seed: random.Random(seed)",
                    )
                continue
            # Module-level random.* draws (random.random, random.choice...).
            if name.startswith("random.") and name.count(".") == 1:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() draws from the hidden module-global RNG",
                    fix_hint="thread an explicit random.Random(seed) / "
                    "np.random.Generator through the call site",
                )
                continue
            # numpy: default_rng()/RandomState() without a seed.
            if name.endswith((".random.default_rng", ".random.RandomState")):
                if not _call_has_seed(node):
                    yield self.finding(
                        ctx,
                        node,
                        f"{name}() without a seed — every run draws a fresh "
                        "entropy-based stream",
                        fix_hint="pass a seed (or accept an rng parameter)",
                    )
                continue
            # numpy legacy globals: np.random.rand, np.random.shuffle, ...
            parts = name.split(".")
            if (
                len(parts) == 3
                and parts[1] == "random"
                and parts[0] in ("np", "numpy")
                and parts[2] not in _NUMPY_SEEDABLE
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() uses numpy's legacy global RNG state",
                    fix_hint="use a seeded np.random.default_rng(seed) Generator",
                )


class WallClockRule(Rule):
    """RL004: wall-clock reads inside a simulated-time codebase."""

    rule_id = "RL004"
    summary = "wall-clock call (time.time, datetime.now); simulated time is the only clock"

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() reads the wall clock; model code must use "
                    "simulated time (Simulator.now) or take time as an argument",
                    fix_hint="pass `now`/timestamps in explicitly",
                )


def _is_set_expression(node: ast.AST) -> bool:
    """Syntactically-certain sets: literals, comprehensions, set()/frozenset()
    calls, and set operators on those."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


class SetIterationRule(Rule):
    """RL005: iteration order of a set leaks into results."""

    rule_id = "RL005"
    summary = (
        "iterating a set (hash order) in determinism-critical code; "
        "wrap in sorted()"
    )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        if not ctx.is_determinism_critical:
            return
        for node in ctx.nodes:
            iters = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                # list(set(...)) / tuple(set(...)) materialise hash order.
                if dotted_name(node.func) in ("list", "tuple") and node.args:
                    iters.append(node.args[0])
            for candidate in iters:
                if _is_set_expression(candidate):
                    yield self.finding(
                        ctx,
                        candidate,
                        "iteration over a set depends on hash order "
                        "(perturbed by PYTHONHASHSEED) — results may differ "
                        "between runs",
                        fix_hint="iterate sorted(the_set) or keep a list",
                    )
