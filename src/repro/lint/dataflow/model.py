"""Per-file analysis summaries: what the dataflow layer knows of a file.

A :class:`FileSummary` is a pure function of one file's source text —
no cross-file facts leak in.  Everything interprocedural (alias
chasing, dimension and byte-base conflicts) happens later in the
linker over a set of summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class ParamInfo:
    """One parameter (or dataclass field) of a callable."""

    name: str
    #: Dimension from annotation or name suffix, else None.
    dimension: Optional[str] = None
    #: Byte base the callee's own body treats this value as
    #: ("binary"/"decimal"), inferred from arithmetic with size
    #: constants; None when unused or ambiguous.
    base: Optional[str] = None


@dataclass
class ArgInfo:
    """One argument expression at a call site, reduced to facts the
    linker can join against the callee's parameters."""

    #: Positional index, or -1 for keywords.
    position: int = -1
    #: Keyword name, or "" for positionals.
    keyword: str = ""
    dimension: Optional[str] = None
    base: Optional[str] = None
    #: Resolved callee name when the argument is itself a bare call
    #: (``f(g())``) — the linker substitutes g's return quantity.
    call: str = ""
    #: Short source snippet for messages.
    text: str = ""


@dataclass
class CallInfo:
    """One call site inside a function body."""

    #: Best-effort fully-qualified callee ("repro.energy.model.hbm_refresh")
    #: after local import/alias resolution.
    callee: str = ""
    lineno: int = 0
    col: int = 0
    args: List[ArgInfo] = field(default_factory=list)
    #: Base families of size constants in the maximal arithmetic
    #: expression enclosing this call — joined against the callee's
    #: return base to catch ``reserved_gib() + 4 * GB``.
    expr_bases: List[str] = field(default_factory=list)
    #: Dimension of the assignment target consuming this call's result
    #: (``refresh_s = total_bytes(...)``), else None.
    target_dimension: Optional[str] = None
    #: Name of the assignment target, for messages.
    target_text: str = ""


@dataclass
class FunctionSummary:
    """Everything the linker needs to know about one function."""

    #: Module-qualified name: ``repro.energy.model.refresh_power`` or
    #: ``repro.sim.kernel.Simulator.run`` (``<module>`` for top-level code).
    qualname: str = ""
    params: List[ParamInfo] = field(default_factory=list)
    #: Inferred dimension/base of the return value.
    return_dimension: Optional[str] = None
    return_base: Optional[str] = None
    #: Callee whose return this function forwards (``return helper(x)``).
    returns_call: str = ""
    calls: List[CallInfo] = field(default_factory=list)


@dataclass
class ClassSummary:
    """A class: constructor surface for RL012/RL013 at call sites."""

    qualname: str = ""
    #: Constructor parameters: explicit ``__init__`` params (minus
    #: ``self``) when defined, else dataclass fields in order.
    init_params: List[ParamInfo] = field(default_factory=list)


@dataclass
class FileSummary:
    """The per-file analysis product."""

    #: Repo-relative display path (stable across machines).
    path: str = ""
    #: Dotted module name, or "" outside a repro package root.
    module: str = ""
    #: Local name -> fully qualified target for imports/aliases
    #: (``{"PoissonArrivals": "repro.workload.requests.PoissonArrivals"}``).
    aliases: Dict[str, str] = field(default_factory=dict)
    functions: List[FunctionSummary] = field(default_factory=list)
    classes: List[ClassSummary] = field(default_factory=list)
