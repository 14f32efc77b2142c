"""The interprocedural rules: RL012-RL016.

Each checker walks the linked :class:`~repro.lint.dataflow.linker.
Program` and yields :class:`~repro.lint.findings.Finding` objects
anchored at the *call site* (the place a human would edit).  Functions
are visited in sorted qualname order and call sites in source order,
so reports are deterministic.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.dataflow import dimensions as dims
from repro.lint.dataflow.linker import Program
from repro.lint.dataflow.model import PROV_LITERAL, PROV_UNSEEDED
from repro.lint.findings import Finding, Severity

#: Packages whose code a sweep's per-point SeedSequence must govern.
RNG_SCOPE_PACKAGES: Tuple[str, ...] = ("repro.sim", "repro.workload", "repro.faults")

DATAFLOW_RULE_IDS: Tuple[str, ...] = ("RL012", "RL013", "RL014", "RL015", "RL016")

_SUMMARIES: Dict[str, str] = {
    "RL012": (
        "cross-function dimension conflict: an argument or returned value's "
        "inferred dimension (bytes, seconds, joules, ...) disagrees with the "
        "callee parameter / assignment target"
    ),
    "RL013": (
        "binary (GiB) and decimal (GB) byte bases mixed across a call "
        "boundary — the interprocedural RL002"
    ),
    "RL014": (
        "RNG not derived from a seed/SeedSequence parameter reaches "
        "sim/workload/faults code (pinned literal seed, or entropy through "
        "a helper's seed=None default) — the interprocedural RL003"
    ),
    "RL015": (
        "sim process transitively reaches a wall-clock or blocking call "
        "through helpers — the interprocedural RL004/RL007"
    ),
    "RL016": (
        "order-sensitive float reduction: floats accumulated over dict/set-"
        "ordered iteration (directly or through callees) — non-associative "
        "addition makes the result depend on iteration order, breaking "
        "serial/parallel bit-identity"
    ),
}


def dataflow_catalog() -> Dict[str, str]:
    """``{rule_id: summary}`` merged into ``--list-rules``."""
    return dict(_SUMMARIES)


def _finding(
    rule_id: str,
    path: str,
    lineno: int,
    col: int,
    message: str,
    fix_hint: str,
) -> Finding:
    return Finding(
        rule_id=rule_id,
        severity=Severity.ERROR,
        path=path,
        line=lineno,
        col=col,
        message=message,
        fix_hint=fix_hint or f"or suppress: # repro-lint: disable={rule_id}",
    )


def _short(qualname: str) -> str:
    """Last two components: ``repro.energy.model.f`` -> ``model.f``."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qualname


# ---------------------------------------------------------------------------
# RL012 — cross-function dimension conflicts
# ---------------------------------------------------------------------------
def check_dimension_conflicts(program: Program) -> Iterator[Finding]:
    for qualname in sorted(program.functions):
        fn = program.functions[qualname]
        path = program.path_of_function.get(qualname, "")
        for call in fn.calls:
            resolved = program.resolve(call.callee)
            if not resolved:
                continue
            params = program.callee_params(resolved)
            if params:
                for param, arg in program.bind(params, call):
                    arg_dim = arg.dimension
                    if arg_dim is None and arg.call:
                        inner = program.resolve(arg.call)
                        if inner:
                            arg_dim, _ = program.return_quantity(inner)
                    if (
                        param.dimension is not None
                        and arg_dim is not None
                        and dims.conflict(param.dimension, arg_dim)
                    ):
                        yield _finding(
                            "RL012",
                            path,
                            call.lineno,
                            call.col,
                            f"argument `{arg.text}` ({dims.describe_dimension(arg_dim)}) "
                            f"flows into parameter `{param.name}` "
                            f"({dims.describe_dimension(param.dimension)}) of "
                            f"{_short(resolved)}()",
                            "convert at the boundary (repro.units) or rename "
                            "the parameter to match what it actually receives",
                        )
            # Return value consumed under a conflicting name.
            if call.target_dimension is not None:
                ret_dim, _ = program.return_quantity(resolved)
                if ret_dim is not None and dims.conflict(
                    call.target_dimension, ret_dim
                ):
                    yield _finding(
                        "RL012",
                        path,
                        call.lineno,
                        call.col,
                        f"{_short(resolved)}() returns "
                        f"{dims.describe_dimension(ret_dim)} but is assigned to "
                        f"`{call.target_text}` "
                        f"({dims.describe_dimension(call.target_dimension)})",
                        "convert the return value or rename the target",
                    )


# ---------------------------------------------------------------------------
# RL013 — byte-base mixing across call boundaries
# ---------------------------------------------------------------------------
def check_base_conflicts(program: Program) -> Iterator[Finding]:
    for qualname in sorted(program.functions):
        fn = program.functions[qualname]
        path = program.path_of_function.get(qualname, "")
        for call in fn.calls:
            resolved = program.resolve(call.callee)
            if not resolved:
                continue
            params = program.callee_params(resolved)
            if params:
                for param, arg in program.bind(params, call):
                    arg_base = arg.base
                    if arg_base is None and arg.call:
                        inner = program.resolve(arg.call)
                        if inner:
                            _, arg_base = program.return_quantity(inner)
                    if (
                        param.base is not None
                        and arg_base is not None
                        and param.base != arg_base
                    ):
                        yield _finding(
                            "RL013",
                            path,
                            call.lineno,
                            call.col,
                            f"argument `{arg.text}` is built from "
                            f"{arg_base} size constants but {_short(resolved)}() "
                            f"treats `{param.name}` as {param.base} "
                            "— a silent ~2-10% capacity error across the call",
                            "pick one base for the boundary and convert "
                            "explicitly (repro.units)",
                        )
            # The call's result mixed with the other base in the
            # caller's own arithmetic: reserved_gib() + 4 * GB.
            if call.expr_bases:
                _, ret_base = program.return_quantity(resolved)
                if ret_base is not None:
                    others = [b for b in call.expr_bases if b != ret_base]
                    if others:
                        yield _finding(
                            "RL013",
                            path,
                            call.lineno,
                            call.col,
                            f"{_short(resolved)}() returns a {ret_base}-base "
                            f"byte count, mixed here with {others[0]} size "
                            "constants — the per-file RL002 cannot see across "
                            "the call",
                            "convert the return value at the boundary",
                        )


# ---------------------------------------------------------------------------
# RL014 — seed provenance
# ---------------------------------------------------------------------------
def _rng_scope(program: Program) -> Set[str]:
    """Functions whose RNGs a sweep's SeedSequence must govern: every
    function in the sim/workload/faults packages plus everything they
    transitively call."""
    seeds: Set[str] = set()
    scope_paths = {
        path
        for module, path in program.path_of_module.items()
        if any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in RNG_SCOPE_PACKAGES
        )
    }
    for qualname, path in program.path_of_function.items():
        if path in scope_paths and qualname in program.functions:
            seeds.add(qualname)
    return program.reachable_from(seeds)


def check_seed_provenance(program: Program) -> Iterator[Finding]:
    scope = _rng_scope(program)
    for qualname in sorted(scope):
        fn = program.functions.get(qualname)
        if fn is None:
            continue
        path = program.path_of_function.get(qualname, "")
        for event in fn.rng_events:
            if event.provenance == PROV_LITERAL:
                yield _finding(
                    "RL014",
                    path,
                    event.lineno,
                    event.col,
                    f"`{event.text}` pins a literal seed inside code a sweep "
                    "point executes — every point draws the same stream, "
                    "breaking the serial==parallel identity",
                    "derive the generator from a seed/SeedSequence parameter "
                    "(see repro.parallel.seeds)",
                )
            elif event.provenance == PROV_UNSEEDED and event.seed_text:
                yield _finding(
                    "RL014",
                    path,
                    event.lineno,
                    event.col,
                    f"`{event.text}` is seeded with None — OS entropy, a "
                    "different stream every run",
                    "derive the generator from a seed/SeedSequence parameter",
                )
        for call in fn.calls:
            prov, seed_name = program.effective_rng_at_call(call)
            if prov == PROV_UNSEEDED:
                yield _finding(
                    "RL014",
                    path,
                    call.lineno,
                    call.col,
                    f"call to RNG factory {_short(program.resolve(call.callee))}() "
                    f"leaves `{seed_name}` unset (defaults to None) — the "
                    "generator is entropy-seeded, untraceable to the sweep's "
                    "SeedSequence root",
                    f"pass {seed_name}= derived from the caller's seed "
                    "parameter",
                )
            elif prov == PROV_LITERAL:
                yield _finding(
                    "RL014",
                    path,
                    call.lineno,
                    call.col,
                    f"call to RNG factory {_short(program.resolve(call.callee))}() "
                    f"pins `{seed_name}` to a literal — every sweep point "
                    "shares one stream",
                    f"thread the point's seed into {seed_name}=",
                )


# ---------------------------------------------------------------------------
# RL015 — sim processes reaching wall clocks / blocking calls via helpers
# ---------------------------------------------------------------------------
def _propagate(
    direct: Dict[str, str], edges: Dict[str, List[str]]
) -> Dict[str, Tuple[str, str]]:
    """qualname -> (next hop qualname or '', terminal cause) for every
    function in ``direct`` and every caller reaching one over ``edges``."""
    reach = {qualname: ("", cause) for qualname, cause in direct.items()}
    changed = True
    while changed:
        changed = False
        for caller in sorted(edges):
            if caller in reach:
                continue
            for callee in edges[caller]:
                if callee in reach:
                    reach[caller] = (callee, reach[callee][1])
                    changed = True
                    break
    return reach


def _taint_map(program: Program) -> Dict[str, Tuple[str, str]]:
    """Functions that directly or transitively reach a wall-clock or
    blocking call (see :func:`_propagate`)."""
    direct = {
        qualname: f"{fn.wall_calls[0].name}()"
        for qualname, fn in sorted(program.functions.items())
        if fn.wall_calls
    }
    edges = {
        caller: [callee for _, callee in sites]
        for caller, sites in program.call_edges().items()
    }
    return _propagate(direct, edges)


def _chain(start: str, reach: Dict[str, Tuple[str, str]]) -> str:
    hops: List[str] = []
    current: Optional[str] = start
    for _ in range(16):
        if current is None or current not in reach:
            break
        hops.append(_short(current))
        nxt, terminal = reach[current]
        if not nxt:
            hops.append(terminal)
            break
        current = nxt
    return " -> ".join(hops)


def check_process_purity(program: Program) -> Iterator[Finding]:
    taint = _taint_map(program)
    edges = program.call_edges()
    for qualname in sorted(program.functions):
        fn = program.functions[qualname]
        if not fn.is_sim_process:
            continue
        path = program.path_of_function.get(qualname, "")
        for call, callee in edges.get(qualname, []):
            if callee not in taint:
                continue
            yield _finding(
                "RL015",
                path,
                call.lineno,
                call.col,
                f"sim process {_short(qualname)} calls "
                f"{_short(callee)}(), which reaches "
                f"{_chain(callee, taint)} — between events a process runs "
                "at a frozen simulated instant",
                "model the delay with Timeout / pass time in explicitly; "
                "the helper must not touch the real clock",
            )


# ---------------------------------------------------------------------------
# RL016 — order-sensitive float reductions
# ---------------------------------------------------------------------------
def float_accum_shared(program: Program) -> Dict[str, Tuple[str, str]]:
    """Functions that accumulate floats into ``self``/module state,
    directly or through plain, ``self.`` and ``self.<attr>.`` calls (see
    :func:`_propagate`).  Constructor edges do not carry the flag:
    ``__init__`` filling a fresh object is not the caller's state."""
    direct: Dict[str, str] = {}
    for qualname, fn in sorted(program.functions.items()):
        shared = [a for a in fn.float_accums if a.shared]
        if shared:
            direct[qualname] = f"{shared[0].target} += ... at line {shared[0].lineno}"
    edges = {
        caller: [
            callee
            for call, callee in sites
            if program.resolve(call.callee) not in program.classes
        ]
        for caller, sites in program.call_edges().items()
    }
    for caller, callee in program.attr_edges():
        edges.setdefault(caller, []).append(callee)
    return _propagate(direct, edges)


def check_order_sensitive_reductions(
    program: Program, critical_modules: Optional[Set[str]] = None
) -> Iterator[Finding]:
    """Scoped to ``critical_modules`` when given (modules outside any
    ``repro`` package always stay in scope)."""
    accumulators = float_accum_shared(program)
    module_of = {path: module for module, path in program.path_of_module.items()}
    edges = program.call_edges()
    for qualname, fn in sorted(program.functions.items()):
        path = program.path_of_function.get(qualname, "")
        module = module_of.get(path, "")
        if critical_modules is not None and module and module not in critical_modules:
            continue
        flagged: Set[int] = set()
        for accum in fn.float_accums:
            if not accum.iter_order:
                continue
            flagged.add(accum.lineno)
            yield _finding(
                "RL016",
                path,
                accum.lineno,
                accum.col,
                f"order-sensitive float reduction: {accum.target} "
                f"accumulates ({accum.evidence}) over {accum.iter_text} "
                f"({accum.iter_order}) — float addition is not associative, "
                "so the result depends on iteration order",
                "iterate in canonical order (sorted(...)) or accumulate "
                "order-insensitively (integers, exact merges)",
            )
        for call, callee in edges.get(qualname, []):
            if not call.iter_order or call.lineno in flagged:
                continue
            if callee not in accumulators:
                continue
            yield _finding(
                "RL016",
                path,
                call.lineno,
                call.col,
                f"order-sensitive float reduction: loop over "
                f"{call.iter_text} ({call.iter_order}) calls "
                f"{call.callee_text}(), which accumulates floats into "
                f"shared state [{_chain(callee, accumulators)}]",
                "iterate in canonical order (sorted(...)) so the shared "
                "accumulation happens in a reproducible order",
            )


def check_program(
    program: Program,
    rule_ids: Optional[Set[str]] = None,
    critical_modules: Optional[Set[str]] = None,
) -> List[Finding]:
    """Run the selected dataflow rules; deterministic order, deduped.
    ``critical_modules`` scopes RL016 (None: no gate)."""
    wanted = set(rule_ids) if rule_ids is not None else set(DATAFLOW_RULE_IDS)
    checkers = {
        "RL012": check_dimension_conflicts,
        "RL013": check_base_conflicts,
        "RL014": check_seed_provenance,
        "RL015": check_process_purity,
        "RL016": partial(
            check_order_sensitive_reductions, critical_modules=critical_modules
        ),
    }
    findings: List[Finding] = []
    seen: Set[Tuple[str, str, int, int, str]] = set()
    for rule_id in DATAFLOW_RULE_IDS:
        if rule_id not in wanted:
            continue
        for finding in checkers[rule_id](program):
            key = (
                finding.rule_id,
                finding.path,
                finding.line,
                finding.col,
                finding.message,
            )
            if key in seen:
                continue
            seen.add(key)
            findings.append(finding)
    return findings
