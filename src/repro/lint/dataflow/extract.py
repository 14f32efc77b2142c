"""Reduce one parsed file to a :class:`FileSummary`.

Extraction is deliberately file-local: the only inputs are the source
text and the module's dotted name.  Name resolution uses the file's
own imports (``from repro.workload.requests import PoissonArrivals``
makes the bare name resolvable here); chasing re-export chains across
files is the linker's job.

Precision stance: this is a linter, so the inferencer prefers silence
over guessing — straight-line local assignments are tracked (last
write wins), control flow is not joined, and anything ambiguous
infers ``None`` and can never produce a finding.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from repro.lint.dataflow import dimensions as dims
from repro.lint.dataflow.model import (
    ArgInfo,
    CallInfo,
    ClassSummary,
    FileSummary,
    FunctionSummary,
    ParamInfo,
)
from repro.lint.imports import build_aliases
from repro.lint.rules.base import dotted_name

_MAX_SNIPPET = 48


def _snippet(node: ast.AST) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return ""
    return text if len(text) <= _MAX_SNIPPET else text[: _MAX_SNIPPET - 3] + "..."


class _NameResolver:
    """Resolves a dotted name written in this file to a fully-qualified
    candidate, using imports, module-level definitions, and (for
    ``self.x``) the enclosing class."""

    def __init__(
        self, module: str, aliases: Dict[str, str], local_defs: Set[str]
    ) -> None:
        self.module = module
        self.aliases = aliases
        self.local_defs = local_defs

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
    infos = [
        _one_param(arg.arg, arg.annotation)
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    ]
    if is_method and infos and infos[0].name in ("self", "cls"):
        infos = infos[1:]
    return infos


def _one_param(name: str, annotation: Optional[ast.expr]) -> ParamInfo:
    dim = dims.dimension_of_annotation(annotation)
    if dim is None:
        dim = dims.dimension_of_name(name)
    return ParamInfo(name=name, dimension=dim)


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


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _assign_targets(node: ast.AST) -> List[str]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]  # type: ignore[attr-defined]
    return [target.id for target in targets if isinstance(target, ast.Name)]


class _FunctionExtractor:
    """Summarizes one function body (or the module's top-level code)."""

    def __init__(
        self,
        resolver: _NameResolver,
        qualname: str,
        params: List[ParamInfo],
        class_ctx: str,
    ) -> None:
        self.resolver = resolver
        self.class_ctx = class_ctx
        self.env: Dict[str, dims.Quantity] = {}
        self.inferencer = dims.ExpressionInferencer(self.env)
        self.summary = FunctionSummary(qualname=qualname, params=params)

    def run(self, root: ast.AST) -> FunctionSummary:
        nodes = _own_nodes(root)
        parents = _parent_map(nodes)
        returns: List[ast.Return] = []
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._track_assignment(node)
            elif isinstance(node, ast.Return):
                returns.append(node)
            if isinstance(node, ast.Call):
                self._record_call(node, parents)
        self._finish_returns(returns)
        self._infer_param_bases(nodes)
        return self.summary

    def _track_assignment(self, node: ast.AST) -> None:
        value = getattr(node, "value", None)
        if value is None:
            return
        quantity = self.inferencer.infer(value)
        if quantity == dims.UNKNOWN:
            return
        for name in _assign_targets(node):
            self.env[name] = quantity

    def _record_call(
        self, node: ast.Call, parents: Dict[ast.AST, ast.AST]
    ) -> None:
        resolved = self.resolver.resolve(dotted_name(node.func), self.class_ctx)
        if not resolved:
            return
        info = CallInfo(callee=resolved, lineno=node.lineno, col=node.col_offset)
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
            names = _assign_targets(parent)
            if names:
                info.target_text = names[0]
            elif isinstance(parent, ast.Assign) and isinstance(
                parent.targets[0], ast.Attribute
            ):
                info.target_text = parent.targets[0].attr
            if info.target_text:
                info.target_dimension = dims.dimension_of_name(info.target_text)
        self.summary.calls.append(info)

    def _arg_info(
        self, node: ast.expr, position: int = -1, keyword: str = ""
    ) -> ArgInfo:
        dim, base = self.inferencer.infer(node)
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
        if dims_seen and len(set(dims_seen)) == 1:
            self.summary.return_dimension = dims_seen[0]
        if bases_seen and len(set(bases_seen)) == 1:
            self.summary.return_base = bases_seen[0]

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
            for name in _names_in(node):
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
    resolver = _NameResolver(module, aliases, local_defs)
    prefix = module or display_path
    summary = FileSummary(path=display_path, module=module, aliases=dict(aliases))

    module_extractor = _FunctionExtractor(resolver, f"{prefix}.<module>", [], "")

    def summarize_function(
        node: ast.FunctionDef, qual_prefix: str, class_ctx: str
    ) -> None:
        is_method = bool(class_ctx) and qual_prefix == class_ctx
        params = _param_infos(node.args, is_method)
        extractor = _FunctionExtractor(
            resolver, f"{qual_prefix}.{node.name}", params, class_ctx
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
                        init_params.append(
                            _one_param(item.target.id, item.annotation)
                        )
            _field_base_usage(node, init_params)
            summary.classes.append(
                ClassSummary(qualname=class_qual, init_params=init_params)
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
