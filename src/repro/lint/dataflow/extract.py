"""Reduce one parsed file to a :class:`FileSummary`.

Extraction is deliberately file-local: the only inputs are the source
text and the module's dotted name.  Name resolution uses the file's
own imports (``from repro.workload.requests import ArrivalProcess``
makes the bare name resolvable here); chasing re-export chains across
files is the linker's job.

Precision stance: this is a linter, so the inferencer prefers silence
over guessing — straight-line local assignments are tracked (last
write wins), control flow is not joined, and anything ambiguous
infers ``None`` and can never produce a finding.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.dataflow import dimensions as dims
from repro.lint.dataflow.model import (
    ArgInfo,
    CallInfo,
    ClassSummary,
    FileSummary,
    FloatAccum,
    FunctionSummary,
    ITER_DICT,
    ITER_SET,
    ITER_SORTED,
    ITER_STABLE,
    ITER_UNKNOWN,
    ParamInfo,
    RngEvent,
    UNSTABLE_ORDERS,
    WallCall,
    PROV_DERIVED,
    PROV_LITERAL,
    PROV_UNKNOWN,
    PROV_UNSEEDED,
)
from repro.lint.rules.base import dotted_name
from repro.lint.rules.determinism import _WALL_CLOCK_CALLS
from repro.lint.rules.simhygiene import BLOCKING_CALLS, COMMAND_CONSTRUCTORS

#: Parameter names that identify the seed input of an RNG factory.
SEED_PARAM_NAMES: Set[str] = {
    "seed",
    "root_seed",
    "seed_seq",
    "seed_sequence",
    "rng",
    "generator",
}

#: Constructor names that build a generator (after alias resolution).
_RNG_CTOR_TAILS: Tuple[str, ...] = (
    "random.default_rng",
    "random.RandomState",
)

#: Helpers whose result is seed-derived by construction.
_SEED_DERIVING_TAILS: Set[str] = {"SeedSequence", "spawn", "spawn_seeds"}

_MAX_SNIPPET = 48

#: Dimensions that imply float arithmetic (non-associative addition).
FLOAT_DIMENSIONS: Set[str] = {dims.SECONDS, dims.JOULES, dims.WATTS, dims.RATIO}

#: Iterable wrappers that keep the inner iterable's order class.
_ORDER_PRESERVING_WRAPPERS: Set[str] = {
    "enumerate",
    "list",
    "tuple",
    "reversed",
    "iter",
}

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


def _snippet(node: ast.AST) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return ""
    return text if len(text) <= _MAX_SNIPPET else text[: _MAX_SNIPPET - 3] + "..."


def _call_tail(call: ast.Call) -> str:
    """Last name component of the callee.  Read straight off the node:
    ``dotted_name`` is '' when the receiver is itself a call
    (``snap.get("counters", {}).items()``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def classify_iter(node: ast.AST) -> Tuple[str, str]:
    """(order class, iterable snippet) of a ``for`` loop's iterable."""
    text = _snippet(node)
    while (
        isinstance(node, ast.Call)
        and _call_tail(node) in _ORDER_PRESERVING_WRAPPERS
        and node.args
    ):
        node = node.args[0]
    if isinstance(node, ast.Call):
        return _ORDER_OF_CALL.get(_call_tail(node), ITER_UNKNOWN), text
    if isinstance(node, (ast.Set, ast.SetComp)):
        return ITER_SET, text
    if isinstance(
        node, (ast.List, ast.Tuple, ast.ListComp, ast.GeneratorExp, ast.Dict)
    ):
        # A dict literal iterates in source order.
        return ITER_STABLE, text
    return ITER_UNKNOWN, text


def _target_root(node: ast.AST) -> str:
    """Root name an attribute/subscript chain hangs off; '' otherwise."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


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
            if dim in FLOAT_DIMENSIONS:
                return f"dimension:{dim}"
    return ""


def build_aliases(tree: ast.Module, module: str) -> Dict[str, str]:
    """Local name -> fully-qualified dotted target, from this file's
    imports (relative imports resolved against ``module``'s package)."""
    package_parts = module.split(".")[:-1] if module else []
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    # `import a.b` binds `a`; attribute chains keep the path.
                    head = alias.name.split(".")[0]
                    aliases.setdefault(head, head)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts[: len(package_parts) - (node.level - 1)]
                prefix = ".".join(base)
                if node.module:
                    prefix = f"{prefix}.{node.module}" if prefix else node.module
            else:
                prefix = node.module or ""
            if not prefix:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{prefix}.{alias.name}"
    return aliases


class _NameResolver:
    """Resolves a dotted name written in this file to a fully-qualified
    candidate, using imports, module-level definitions, and (for
    ``self.x``) the enclosing class."""

    def __init__(
        self,
        module: str,
        aliases: Dict[str, str],
        local_defs: Set[str],
        module_globals: Set[str],
    ) -> None:
        self.module = module
        self.aliases = aliases
        self.local_defs = local_defs
        #: Top-level definitions plus module-level assignment targets.
        self.module_globals = module_globals

    def resolve(self, name: str, class_ctx: str = "") -> str:
        if not name:
            return ""
        head, _, rest = name.partition(".")
        if head in ("self", "cls") and class_ctx:
            if rest and "." not in rest:
                return f"{class_ctx}.{rest}"
            return ""
        if head in self.aliases:
            target = self.aliases[head]
            return f"{target}.{rest}" if rest else target
        if head in self.local_defs and self.module:
            return f"{self.module}.{name}"
        return ""


def _param_infos(
    args: ast.arguments, is_method: bool
) -> List[ParamInfo]:
    """ParamInfo list in binding order (``self``/``cls`` dropped)."""
    positional = list(args.posonlyargs) + list(args.args)
    defaults: List[Optional[ast.expr]] = [None] * (
        len(positional) - len(args.defaults)
    ) + list(args.defaults)
    infos: List[ParamInfo] = []
    for arg, default in zip(positional, defaults):
        infos.append(_one_param(arg, default))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        infos.append(_one_param(arg, default))
    if is_method and infos and infos[0].name in ("self", "cls"):
        infos = infos[1:]
    return infos


def _one_param(arg: ast.arg, default: Optional[ast.expr]) -> ParamInfo:
    dim = dims.dimension_of_annotation(arg.annotation)
    if dim is None:
        dim = dims.dimension_of_name(arg.arg)
    return ParamInfo(
        name=arg.arg,
        dimension=dim,
        has_default=default is not None,
        default_is_none=isinstance(default, ast.Constant)
        and default.value is None,
    )


def _own_nodes(root: ast.AST) -> List[ast.AST]:
    """Nodes belonging to ``root``'s body in source order, stopping at
    nested function/class boundaries (they get their own summaries)."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(reversed(list(ast.iter_child_nodes(root))))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        out.append(node)
        stack.extend(reversed(list(ast.iter_child_nodes(node))))
    return out


def _parent_map(nodes: Sequence[ast.AST]) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in nodes:
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _maximal_binop(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> Optional[ast.BinOp]:
    """The outermost BinOp enclosing ``node``, or None."""
    top: Optional[ast.BinOp] = None
    current = parents.get(node)
    while current is not None:
        if isinstance(current, ast.BinOp):
            top = current
        elif top is not None:
            break
        current = parents.get(current)
    return top


def _bases_excluding(root: ast.AST, excluded: ast.AST) -> List[str]:
    """Size-constant bases under ``root``, skipping the ``excluded``
    subtree (so a call's own arguments don't count as 'mixed with' its
    result)."""
    bases: Set[str] = set()
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        if node is excluded:
            continue
        name = ""
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name in dims.BINARY_SIZE_CONSTANTS:
            bases.add(dims.BINARY)
        elif name in dims.DECIMAL_SIZE_CONSTANTS:
            bases.add(dims.DECIMAL)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(bases)


class _FunctionExtractor:
    """Summarizes one function body (or the module's top-level code)."""

    def __init__(
        self,
        resolver: _NameResolver,
        qualname: str,
        node: Optional[ast.AST],
        params: List[ParamInfo],
        is_method: bool,
        class_ctx: str,
    ) -> None:
        self.resolver = resolver
        self.class_ctx = class_ctx
        self.param_names = {p.name for p in params}
        if is_method:
            self.param_names |= {"self", "cls"}
        self.env: Dict[str, dims.Quantity] = {}
        #: local var -> (provenance, seed_param) for rng-valued locals.
        self.env_rng: Dict[str, Tuple[str, str]] = {}
        #: local var -> True when the value derives from a seed param.
        self.env_seed_derived: Set[str] = set()
        self.inferencer = dims.ExpressionInferencer(self.env)
        self.summary = FunctionSummary(
            qualname=qualname,
            lineno=getattr(node, "lineno", 0) if node is not None else 0,
            col=getattr(node, "col_offset", 0) if node is not None else 0,
            is_method=is_method,
            params=params,
        )

    # -- seed/rng classification ------------------------------------------
    def _names_in(self, node: ast.AST) -> Set[str]:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    def classify_seed_expr(self, node: Optional[ast.AST]) -> Tuple[str, str]:
        """(provenance, seed_param) of a seed-like expression."""
        if node is None:
            return PROV_UNSEEDED, ""
        if isinstance(node, ast.Constant):
            if node.value is None:
                return PROV_UNSEEDED, ""
            return PROV_LITERAL, ""
        names = self._names_in(node)
        param_hits = sorted(names & self.param_names)
        if param_hits:
            hit = next((p for p in param_hits if p not in ("self", "cls")), "")
            return PROV_DERIVED, hit
        if names & self.env_seed_derived:
            return PROV_DERIVED, ""
        for name in names:
            if name in self.env_rng:
                return self.env_rng[name][0], self.env_rng[name][1]
        if not names:
            # Pure-constant arithmetic (e.g. SeedSequence(2**32 - 1)).
            return PROV_LITERAL, ""
        return PROV_UNKNOWN, ""

    def _rng_ctor(self, call: ast.Call) -> bool:
        raw = dotted_name(call.func)
        if not raw:
            return False
        resolved = self.resolver.resolve(raw, self.class_ctx) or raw
        if resolved == "random.Random" or raw == "random.Random":
            return True
        return resolved.endswith(_RNG_CTOR_TAILS) or raw.endswith(_RNG_CTOR_TAILS)

    def _seed_expr_of_ctor(self, call: ast.Call) -> Optional[ast.expr]:
        if call.args:
            return call.args[0]
        for kw in call.keywords:
            if kw.arg in ("seed", "x"):
                return kw.value
        return None

    def classify_value(self, node: ast.AST) -> Tuple[str, str]:
        """Seed provenance of an arbitrary value expression: an rng
        construction classifies its seed; a seed-ish derivation
        (SeedSequence/.spawn) classifies its inputs; a bare name looks
        up the local environment."""
        if isinstance(node, ast.Call):
            if self._rng_ctor(node):
                return self.classify_seed_expr(self._seed_expr_of_ctor(node))
            tail = dotted_name(node.func).split(".")[-1]
            if tail in _SEED_DERIVING_TAILS:
                if not node.args and not node.keywords:
                    return PROV_UNSEEDED, ""
                provs = [self.classify_seed_expr(a) for a in node.args] + [
                    self.classify_seed_expr(k.value) for k in node.keywords
                ]
                for wanted in (PROV_DERIVED, PROV_UNSEEDED, PROV_UNKNOWN):
                    for prov, param in provs:
                        if prov == wanted:
                            return prov, param
                return PROV_LITERAL, ""
        return self.classify_seed_expr(node)

    # -- the walk ----------------------------------------------------------
    def run(self, root: ast.AST) -> FunctionSummary:
        nodes = _own_nodes(root)
        parents = _parent_map(nodes)
        returns: List[ast.Return] = []
        yields: List[ast.Yield] = []
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._track_assignment(node)
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    self._track_dict_reduction(node, parents)
                    self._track_attr_bind(node)
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.op, (ast.Add, ast.Sub)):
                    self._track_accum(node, node.target, node.value, parents)
            elif isinstance(node, ast.Return):
                returns.append(node)
            elif isinstance(node, ast.Yield):
                yields.append(node)
            if isinstance(node, ast.Call):
                self._record_call(node, parents)
        self._finish_returns(returns)
        self._finish_sim_process(yields)
        self._infer_param_bases(nodes)
        return self.summary

    def _assign_targets(self, node: ast.AST) -> List[str]:
        targets: List[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target]  # type: ignore[attr-defined]
        names: List[str] = []
        for target in targets:
            if isinstance(target, ast.Name):
                names.append(target.id)
        return names

    def _track_assignment(self, node: ast.AST) -> None:
        value = getattr(node, "value", None)
        if value is None:
            return
        names = self._assign_targets(node)
        if not names:
            return
        quantity = self.inferencer.infer(value)
        prov, seed_param = self.classify_value(value)
        is_rng = isinstance(value, ast.Call) and self._rng_ctor(value)
        tail = (
            dotted_name(value.func).split(".")[-1]
            if isinstance(value, ast.Call)
            else ""
        )
        seed_derived = prov == PROV_DERIVED or (
            isinstance(value, ast.AST)
            and bool(self._names_in(value) & (self.param_names | self.env_seed_derived))
        )
        for name in names:
            if quantity != dims.UNKNOWN:
                self.env[name] = quantity
            if is_rng or tail in _SEED_DERIVING_TAILS:
                self.env_rng[name] = (prov, seed_param)
            if seed_derived:
                self.env_seed_derived.add(name)

    # -- RL016 facts -------------------------------------------------------
    @staticmethod
    def _unstable_loop(
        node: ast.AST, parents: Dict[ast.AST, ast.AST]
    ) -> Tuple[str, str]:
        """(order, iterable text) of the nearest enclosing ``for`` when it
        iterates in dict or set order, else ("", "")."""
        current = parents.get(node)
        while current is not None and not isinstance(current, ast.For):
            current = parents.get(current)
        if current is None:
            return "", ""
        order, text = classify_iter(current.iter)
        return (order, text) if order in UNSTABLE_ORDERS else ("", "")

    def _track_accum(
        self,
        node: ast.stmt,
        target: ast.AST,
        value: ast.AST,
        parents: Dict[ast.AST, ast.AST],
    ) -> None:
        evidence = _float_evidence(target, value)
        if not evidence:
            return
        root = _target_root(target)
        shared = root in ("self", "cls") or (
            root in self.resolver.module_globals and root not in self.param_names
        )
        order, iter_text = self._unstable_loop(node, parents)
        if shared or order:
            self.summary.float_accums.append(
                FloatAccum(
                    target=_snippet(target),
                    shared=shared,
                    lineno=node.lineno,
                    col=node.col_offset,
                    iter_order=order,
                    iter_text=iter_text,
                    evidence=evidence,
                )
            )

    def _track_dict_reduction(
        self, node: ast.Assign, parents: Dict[ast.AST, ast.AST]
    ) -> None:
        """``B[k] = B.get(k, 0.0) + v`` — a reduction in disguise."""
        target = node.targets[0]
        if not isinstance(target, ast.Subscript):
            return
        base = _snippet(target.value)
        subs = list(ast.walk(node.value))
        adds = any(
            isinstance(sub, ast.BinOp) and isinstance(sub.op, (ast.Add, ast.Sub))
            for sub in subs
        )
        reads_base = any(
            (isinstance(sub, ast.Subscript) and _snippet(sub.value) == base)
            or (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "get"
                and _snippet(sub.func.value) == base
            )
            for sub in subs
        )
        if base and adds and reads_base:
            self._track_accum(node, target, node.value, parents)

    def _track_attr_bind(self, node: ast.Assign) -> None:
        """``self.<attr> = Klass(...)``: what the attribute holds."""
        target = node.targets[0]
        if (
            self.class_ctx
            and isinstance(node.value, ast.Call)
            and isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")
        ):
            klass = self.resolver.resolve(
                dotted_name(node.value.func), self.class_ctx
            )
            if klass:
                self.summary.attr_binds.setdefault(
                    f"{self.class_ctx}.{target.attr}", klass
                )

    def _record_call(
        self, node: ast.Call, parents: Dict[ast.AST, ast.AST]
    ) -> None:
        raw = dotted_name(node.func)
        resolved = self.resolver.resolve(raw, self.class_ctx)
        # self.<attr>.<method>(): the linker resolves it through the
        # class's attr_binds (RL016's attribute-typed edges).
        func = node.func
        if (
            self.class_ctx
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in ("self", "cls")
        ):
            self.summary.attr_calls.append(
                f"{self.class_ctx}.{func.value.attr}.{func.attr}"
            )
        # Direct wall-clock / blocking calls (RL015's taint sources).
        if raw in _WALL_CLOCK_CALLS or raw in BLOCKING_CALLS:
            self.summary.wall_calls.append(
                WallCall(name=raw, lineno=node.lineno, col=node.col_offset)
            )
        # Direct RNG constructions (RL014's direct events).
        if self._rng_ctor(node):
            seed_expr = self._seed_expr_of_ctor(node)
            prov, _ = self.classify_seed_expr(seed_expr)
            self.summary.rng_events.append(
                RngEvent(
                    lineno=node.lineno,
                    col=node.col_offset,
                    provenance=prov,
                    text=_snippet(node),
                    seed_text=_snippet(seed_expr) if seed_expr is not None else "",
                )
            )
        if not resolved:
            return
        info = CallInfo(
            callee=resolved,
            callee_text=raw,
            lineno=node.lineno,
            col=node.col_offset,
        )
        info.iter_order, info.iter_text = self._unstable_loop(node, parents)
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                continue
            info.args.append(self._arg_info(arg, position=position))
        for kw in node.keywords:
            if kw.arg is None:  # **kwargs
                continue
            info.args.append(self._arg_info(kw.value, keyword=kw.arg))
        top = _maximal_binop(node, parents)
        if top is not None:
            info.expr_bases = _bases_excluding(top, node)
        parent = parents.get(node)
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            names = self._assign_targets(parent)
            if names:
                info.target_text = names[0]
                info.target_dimension = dims.dimension_of_name(names[0])
            elif isinstance(parent, ast.Assign) and isinstance(
                parent.targets[0], ast.Attribute
            ):
                info.target_text = parent.targets[0].attr
                info.target_dimension = dims.dimension_of_name(
                    parent.targets[0].attr
                )
        self.summary.calls.append(info)

    def _arg_info(
        self, node: ast.expr, position: int = -1, keyword: str = ""
    ) -> ArgInfo:
        dim, base = self.inferencer.infer(node)
        prov, _ = self.classify_value(node)
        inner_call = ""
        if isinstance(node, ast.Call):
            inner_call = self.resolver.resolve(
                dotted_name(node.func), self.class_ctx
            )
        return ArgInfo(
            position=position,
            keyword=keyword,
            dimension=dim,
            base=base,
            call=inner_call,
            rng=prov,
            text=_snippet(node),
        )

    def _finish_returns(self, returns: List[ast.Return]) -> None:
        dims_seen: List[str] = []
        bases_seen: List[str] = []
        for ret in returns:
            if ret.value is None:
                continue
            dim, base = self.inferencer.infer(ret.value)
            if dim is not None:
                dims_seen.append(dim)
            if base is not None:
                bases_seen.append(base)
            if isinstance(ret.value, ast.Call):
                resolved = self.resolver.resolve(
                    dotted_name(ret.value.func), self.class_ctx
                )
                if resolved and not self.summary.returns_call:
                    self.summary.returns_call = resolved
            if not self.summary.returns_rng:
                prov, seed_param = self._returned_rng(ret.value)
                if prov:
                    self.summary.returns_rng = prov
                    self.summary.rng_seed_param = seed_param
        if dims_seen and len(set(dims_seen)) == 1:
            self.summary.return_dimension = dims_seen[0]
        if bases_seen and len(set(bases_seen)) == 1:
            self.summary.return_base = bases_seen[0]

    def _returned_rng(self, value: ast.expr) -> Tuple[str, str]:
        if isinstance(value, ast.Call) and self._rng_ctor(value):
            return self.classify_seed_expr(self._seed_expr_of_ctor(value))
        if isinstance(value, ast.Name) and value.id in self.env_rng:
            return self.env_rng[value.id]
        return "", ""

    def _finish_sim_process(self, yields: List[ast.Yield]) -> None:
        self.summary.is_sim_process = any(
            isinstance(y.value, ast.Call)
            and dotted_name(y.value.func).split(".")[-1] in COMMAND_CONSTRUCTORS
            for y in yields
        )

    def _infer_param_bases(self, nodes: Sequence[ast.AST]) -> None:
        """A parameter used in arithmetic with exactly one size-constant
        family inherits that family as its byte base."""
        candidates: Dict[str, Set[str]] = {}
        for node in nodes:
            if not isinstance(node, ast.BinOp):
                continue
            bases = dims.bases_in(node)
            if len(bases) != 1:
                continue
            base = next(iter(bases))
            for name in self._names_in(node):
                candidates.setdefault(name, set()).add(base)
        for param in self.summary.params:
            seen = candidates.get(param.name)
            if seen and len(seen) == 1 and param.base is None:
                param.base = next(iter(seen))


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if dotted_name(target).split(".")[-1] == "dataclass":
            return True
    return False


def _field_base_usage(
    node: ast.ClassDef, fields: List[ParamInfo]
) -> None:
    """Byte base of ``self.<field>`` usage across the class's methods."""
    wanted = {f.name for f in fields}
    candidates: Dict[str, Set[str]] = {}
    for sub in ast.walk(node):
        if not isinstance(sub, ast.BinOp):
            continue
        bases = dims.bases_in(sub)
        if len(bases) != 1:
            continue
        base = next(iter(bases))
        for attr in ast.walk(sub):
            if (
                isinstance(attr, ast.Attribute)
                and isinstance(attr.value, ast.Name)
                and attr.value.id == "self"
                and attr.attr in wanted
            ):
                candidates.setdefault(attr.attr, set()).add(base)
    for field_info in fields:
        seen = candidates.get(field_info.name)
        if seen and len(seen) == 1 and field_info.base is None:
            field_info.base = next(iter(seen))


def extract_summary(
    display_path: str,
    module: str,
    source: str,
    tree: Optional[ast.Module] = None,
) -> FileSummary:
    """Summarize one file.  Pure function of (path, module, source)."""
    if tree is None:
        tree = ast.parse(source, filename=display_path)
    aliases = build_aliases(tree, module)
    local_defs = {
        n.name
        for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    module_globals = set(local_defs)
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        module_globals |= {t.id for t in targets if isinstance(t, ast.Name)}
    resolver = _NameResolver(module, aliases, local_defs, module_globals)
    prefix = module or display_path
    summary = FileSummary(path=display_path, module=module, aliases=dict(aliases))

    module_extractor = _FunctionExtractor(
        resolver, f"{prefix}.<module>", None, [], False, ""
    )

    def summarize_function(
        node: ast.FunctionDef, qual_prefix: str, class_ctx: str
    ) -> None:
        is_method = bool(class_ctx) and qual_prefix == class_ctx
        params = _param_infos(node.args, is_method)
        extractor = _FunctionExtractor(
            resolver,
            f"{qual_prefix}.{node.name}",
            node,
            params,
            is_method,
            class_ctx,
        )
        summary.functions.append(extractor.run(node))
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _encloses_directly(node, child):
                    summarize_function(
                        child, f"{qual_prefix}.{node.name}", class_ctx
                    )

    def _encloses_directly(outer: ast.AST, inner: ast.AST) -> bool:
        """Is ``inner`` a function nested in ``outer`` with no other
        function/class definition in between?"""
        stack: List[ast.AST] = list(ast.iter_child_nodes(outer))
        while stack:
            node = stack.pop()
            if node is inner:
                return True
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))
        return False

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summarize_function(node, prefix, "")
        elif isinstance(node, ast.ClassDef):
            class_qual = f"{prefix}.{node.name}"
            init_params: List[ParamInfo] = []
            explicit_init = None
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "__init__"
                ):
                    explicit_init = item
            if explicit_init is not None:
                init_params = _param_infos(explicit_init.args, is_method=True)
            elif _is_dataclass_decorated(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        dim = dims.dimension_of_annotation(item.annotation)
                        if dim is None:
                            dim = dims.dimension_of_name(item.target.id)
                        init_params.append(
                            ParamInfo(
                                name=item.target.id,
                                dimension=dim,
                                has_default=item.value is not None,
                                default_is_none=isinstance(
                                    item.value, ast.Constant
                                )
                                and item.value.value is None,
                            )
                        )
            _field_base_usage(node, init_params)
            summary.classes.append(
                ClassSummary(
                    qualname=class_qual,
                    lineno=node.lineno,
                    is_dataclass=_is_dataclass_decorated(node),
                    init_params=init_params,
                )
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    summarize_function(item, class_qual, class_qual)
        else:
            # Module-level statements share one pseudo-function.
            parents = _parent_map(_own_nodes_of_stmt(node))
            for sub in _own_nodes_of_stmt(node):
                if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                    module_extractor._track_assignment(sub)
                if isinstance(sub, ast.Call):
                    module_extractor._record_call(sub, parents)
    summary.functions.append(module_extractor.summary)
    return summary


def _own_nodes_of_stmt(node: ast.AST) -> List[ast.AST]:
    """``node`` plus its descendants, stopping at def/class boundaries."""
    return [node] + _own_nodes(node)
