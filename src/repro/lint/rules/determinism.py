"""Determinism rules (RL003-RL005, RL014).

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
  observable result;
- RL014: a generator in simulation, workload or fault code that a
  sweep's root seed does not govern — pinned to a literal seed, or
  seeded from a parameter that defaults to ``None`` (OS entropy
  whenever a caller omits it).

RL003/RL004 apply to the whole library — it is a deterministic
modeling library; code that genuinely needs entropy must take an
explicit seeded generator.  RL005 applies only to determinism-critical
modules (see :mod:`repro.lint.imports`), RL014 only to the
``repro.sim``, ``repro.workload`` and ``repro.faults`` packages.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

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

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if not name:
                continue
            # random.Random() / Random() without a seed argument.
            if ctx.qualified_name(node.func) == "random.Random":
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
            if _WALL_CLOCK_CALLS & {name, ctx.qualified_name(node.func)}:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() reads the wall clock; model code must use "
                    "simulated time (Simulator.now) or take time as an argument",
                    fix_hint="pass `now`/timestamps in explicitly",
                )


#: Packages whose generators a sweep point's seed must govern (RL014).
SEED_SCOPE_PACKAGES = ("repro.sim", "repro.workload", "repro.faults")

#: Generator constructors, by the tail of their resolved name (RL014).
_RNG_CONSTRUCTORS = (
    "random.default_rng",
    "random.SeedSequence",
    "random.RandomState",
)

#: Nodes a literal seed expression may contain (``7``, ``2**32 - 1``).
_LITERAL_NODES = (
    ast.Constant,
    ast.BinOp,
    ast.UnaryOp,
    ast.Tuple,
    ast.List,
    ast.operator,
    ast.unaryop,
    ast.expr_context,
)


def _seed_argument(call: ast.Call) -> Optional[ast.expr]:
    """The seed a generator constructor receives, if any."""
    if call.args:
        return call.args[0]
    for kw in call.keywords:
        if kw.arg in ("seed", "entropy", "x"):
            return kw.value
    return None


def _none_default_params(func: ast.AST) -> Set[str]:
    """Parameters of ``func`` whose default is the literal ``None``."""
    args = func.args  # type: ignore[attr-defined]
    positional = args.posonlyargs + args.args
    pairs = [
        *zip(positional[len(positional) - len(args.defaults):], args.defaults),
        *zip(args.kwonlyargs, args.kw_defaults),
    ]
    return {
        arg.arg
        for arg, default in pairs
        if isinstance(default, ast.Constant) and default.value is None
    }


class SeedProvenanceRule(Rule):
    """RL014: a generator a sweep's root seed does not govern."""

    rule_id = "RL014"
    summary = (
        "RNG in sim/workload/faults code not derived from the caller's "
        "seed: a literal seed passed to default_rng/SeedSequence/Random, or "
        "a seed parameter that defaults to None"
    )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        module = ctx.module or ""
        if not any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in SEED_SCOPE_PACKAGES
        ):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = ctx.qualified_name(node.func)
            if name != "random.Random" and not name.endswith(_RNG_CONSTRUCTORS):
                continue
            problem = self._problem(ctx, node, _seed_argument(node))
            if problem:
                yield self.finding(
                    ctx,
                    node,
                    f"{ast.unparse(node)} {problem}",
                    fix_hint="derive the generator from the caller's seed "
                    "or SeedSequence, with no None default",
                )

    @staticmethod
    def _problem(ctx: RuleContext, call: ast.Call, seed: Optional[ast.expr]) -> str:
        if seed is None:
            return ""  # no seed at all is RL003's
        if isinstance(seed, ast.Constant) and seed.value is None:
            return "is seeded with None: OS entropy, a different stream every run"
        if all(isinstance(n, _LITERAL_NODES) for n in ast.walk(seed)):
            return (
                "pins a literal seed: every sweep point and every root seed "
                "draws the same stream"
            )
        if not isinstance(seed, ast.Name):
            return ""
        current = ctx.parents.get(call)
        while current is not None and not isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            current = ctx.parents.get(current)
        if current is not None and seed.id in _none_default_params(current):
            return (
                f"is seeded from `{seed.id}`, which defaults to None: a "
                "caller that omits it gets an entropy-seeded stream"
            )
        return ""


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
