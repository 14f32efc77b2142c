"""Per-file analysis summaries: what the dataflow layer knows of a file.

A :class:`FileSummary` is a pure function of one file's source text —
no cross-file facts leak in.  Everything interprocedural (alias
chasing, call-graph closure, dimension conflicts) happens later in the
linker over a set of summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

# Iteration-order classes of a ``for`` loop's iterable (RL016) ---------------
#: Provably canonical: ``sorted(...)``.
ITER_SORTED = "sorted"
#: Fixed by construction: ``range``, list/tuple/dict literals.
ITER_STABLE = "stable"
#: Dict insertion order: stable per process, but it depends on arrival
#: order, which differs between serial and parallel producers.
ITER_DICT = "dict-order"
#: Hash order: varies with PYTHONHASHSEED.
ITER_SET = "set-order"
#: Cannot classify (a bare name, an opaque call): never flagged.
ITER_UNKNOWN = "unknown"
#: Orders that make a float reduction depend on history.
UNSTABLE_ORDERS = (ITER_DICT, ITER_SET)

# RNG provenance tags -------------------------------------------------------
#: Seed derives from a function parameter or a SeedSequence value.
PROV_DERIVED = "derived"
#: Seed is a non-None literal constant (a locally pinned stream).
PROV_LITERAL = "literal"
#: No seed / literal None: OS entropy, different every run.
PROV_UNSEEDED = "unseeded"
#: Seed expression references something we cannot classify.
PROV_UNKNOWN = "unknown"


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
    has_default: bool = False
    #: The default is the literal ``None`` (matters for seed params:
    #: an omitted seed defaulting to None means OS entropy).
    default_is_none: bool = False


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
    #: RNG provenance when the argument builds or forwards a generator.
    rng: str = ""
    #: Short source snippet for messages.
    text: str = ""


@dataclass
class CallInfo:
    """One call site inside a function body."""

    #: Best-effort fully-qualified callee ("repro.energy.model.hbm_refresh")
    #: after local import/alias resolution; "" when unresolvable.
    callee: str = ""
    #: The name as written at the call site, for messages.
    callee_text: str = ""
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
    #: ITER_DICT/ITER_SET when the nearest enclosing loop iterates in
    #: that order, else "" — plus that loop's iterable as written.
    iter_order: str = ""
    iter_text: str = ""


@dataclass
class FloatAccum:
    """A float accumulation: ``x += e`` or ``d[k] = d.get(k, 0.0) + e``.

    Recorded only when it can matter to RL016: inside a dict-/set-order
    loop, or into state that outlives the call.
    """

    #: Accumulation target as written.
    target: str = ""
    #: The target hangs off ``self``/``cls`` or a module global.
    shared: bool = False
    lineno: int = 0
    col: int = 0
    #: Same meaning as :attr:`CallInfo.iter_order` / ``iter_text``.
    iter_order: str = ""
    iter_text: str = ""
    #: Why the value is believed to be a float ("dimension:joules",
    #: "float-literal", "division").
    evidence: str = ""


@dataclass
class RngEvent:
    """A direct RNG construction (``default_rng(...)``, ``Random(...)``)."""

    lineno: int = 0
    col: int = 0
    #: One of the PROV_* tags.
    provenance: str = PROV_UNKNOWN
    #: The constructor as written, for messages.
    text: str = ""
    #: The seed expression as written ("" when omitted).
    seed_text: str = ""


@dataclass
class WallCall:
    """A direct wall-clock or blocking call (RL004/RL007's name sets)."""

    name: str = ""
    lineno: int = 0
    col: int = 0


@dataclass
class FunctionSummary:
    """Everything the linker needs to know about one function."""

    #: Module-qualified name: ``repro.energy.model.refresh_power`` or
    #: ``repro.sim.kernel.Simulator.run`` (``<module>`` for top-level code).
    qualname: str = ""
    lineno: int = 0
    col: int = 0
    is_method: bool = False
    #: Yields at least one Timeout/WakeAt/Wait command.
    is_sim_process: bool = False
    params: List[ParamInfo] = field(default_factory=list)
    #: Inferred dimension/base of the return value.
    return_dimension: Optional[str] = None
    return_base: Optional[str] = None
    #: Callee whose return this function forwards (``return helper(x)``).
    returns_call: str = ""
    #: Provenance when this function returns an RNG it builds ("" when
    #: it does not return one).
    returns_rng: str = ""
    #: The parameter feeding the returned RNG's seed (when derived).
    rng_seed_param: str = ""
    calls: List[CallInfo] = field(default_factory=list)
    rng_events: List[RngEvent] = field(default_factory=list)
    wall_calls: List[WallCall] = field(default_factory=list)
    float_accums: List[FloatAccum] = field(default_factory=list)
    #: ``self.<attr>.<method>()`` call sites, as ``<class>.<attr>.<method>``
    #: (the linker resolves them through :attr:`attr_binds`).
    attr_calls: List[str] = field(default_factory=list)
    #: ``self.<attr> = Klass(...)`` binds: ``<class>.<attr>`` -> the
    #: best-effort qualified name of ``Klass``.
    attr_binds: Dict[str, str] = field(default_factory=dict)


@dataclass
class ClassSummary:
    """A class: constructor surface for RL012/RL013 at call sites."""

    qualname: str = ""
    lineno: int = 0
    is_dataclass: bool = False
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
    #: (``{"ArrivalProcess": "repro.workload.requests.ArrivalProcess"}``).
    aliases: Dict[str, str] = field(default_factory=dict)
    functions: List[FunctionSummary] = field(default_factory=list)
    classes: List[ClassSummary] = field(default_factory=list)
