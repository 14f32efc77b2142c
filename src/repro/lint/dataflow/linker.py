"""Stitch per-file summaries into a whole-program view.

The linker owns everything extraction could not know file-locally:

- **alias chasing** — ``repro.workload.PoissonArrivals`` (a package
  re-export) resolves to ``repro.workload.requests.PoissonArrivals``
  by following each file's import-alias edges to a real definition;
- **argument binding** — pairing a call site's arguments with the
  callee's parameters or a class's constructor surface;
- **return-quantity resolution** — chasing ``return helper(x)`` chains
  with memoization and cycle guards.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.lint.dataflow.model import (
    ArgInfo,
    CallInfo,
    ClassSummary,
    FileSummary,
    FunctionSummary,
    ParamInfo,
)

_MAX_ALIAS_HOPS = 16
_MAX_RETURN_CHASE = 8


class Program:
    """The linked program: symbol tables plus resolution services."""

    def __init__(self, summaries: List[FileSummary]) -> None:
        #: fq function name -> summary.
        self.functions: Dict[str, FunctionSummary] = {}
        #: fq class name -> summary.
        self.classes: Dict[str, ClassSummary] = {}
        #: fq local name -> fq target (import/re-export edges).
        self.alias_edges: Dict[str, str] = {}
        #: owning file path by function qualname.
        self.path_of_function: Dict[str, str] = {}
        for summary in summaries:
            for fn in summary.functions:
                self.functions[fn.qualname] = fn
                self.path_of_function[fn.qualname] = summary.path
            for klass in summary.classes:
                self.classes[klass.qualname] = klass
                self.path_of_function[klass.qualname] = summary.path
            if summary.module:
                for alias, target in summary.aliases.items():
                    self.alias_edges[f"{summary.module}.{alias}"] = target
        self._return_quantity_cache: Dict[str, Tuple[Optional[str], Optional[str]]] = {}

    # -- name resolution ---------------------------------------------------
    def resolve(self, name: str) -> str:
        """Chase alias edges until ``name`` names a known function or
        class (or a method of a known class); '' when unresolvable."""
        current = name
        for _ in range(_MAX_ALIAS_HOPS):
            if current in self.functions or current in self.classes:
                return current
            # `Alias.method` where Alias itself is re-exported.
            head, _, tail = current.rpartition(".")
            if head in self.alias_edges and tail:
                current = f"{self.alias_edges[head]}.{tail}"
                continue
            if current in self.alias_edges:
                current = self.alias_edges[current]
                continue
            return ""
        return ""

    def callee_params(self, resolved: str) -> Optional[List[ParamInfo]]:
        """The parameter list a call binds against: a function's params
        or a class's constructor surface.  None for unknown callees."""
        if resolved in self.functions:
            return self.functions[resolved].params
        if resolved in self.classes:
            return self.classes[resolved].init_params
        return None

    # -- call-site argument binding ---------------------------------------
    @staticmethod
    def bind(
        params: List[ParamInfo], call: CallInfo
    ) -> List[Tuple[ParamInfo, ArgInfo]]:
        """Pair call arguments with callee parameters (positional by
        index, keywords by name; unmatched args are skipped)."""
        by_name = {p.name: p for p in params}
        bound: List[Tuple[ParamInfo, ArgInfo]] = []
        for arg in call.args:
            if arg.keyword:
                param = by_name.get(arg.keyword)
                if param is not None:
                    bound.append((param, arg))
            elif 0 <= arg.position < len(params):
                bound.append((params[arg.position], arg))
        return bound

    # -- return-quantity resolution ---------------------------------------
    def return_quantity(self, resolved: str) -> Tuple[Optional[str], Optional[str]]:
        """(dimension, base) of a callable's return value, chasing
        ``return helper(...)`` forwarding with a cycle guard."""
        if resolved in self._return_quantity_cache:
            return self._return_quantity_cache[resolved]
        self._return_quantity_cache[resolved] = (None, None)  # cycle guard
        dim: Optional[str] = None
        base: Optional[str] = None
        seen: Set[str] = set()
        current = resolved
        for _ in range(_MAX_RETURN_CHASE):
            fn = self.functions.get(current)
            if fn is None or current in seen:
                break
            seen.add(current)
            dim = dim or fn.return_dimension
            base = base or fn.return_base
            if dim is not None and base is not None:
                break
            if not fn.returns_call:
                break
            current = self.resolve(fn.returns_call)
            if not current:
                break
        self._return_quantity_cache[resolved] = (dim, base)
        return dim, base
