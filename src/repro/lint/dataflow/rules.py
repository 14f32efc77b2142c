"""The interprocedural rules: RL012 and RL013.

Each checker walks the linked :class:`~repro.lint.dataflow.linker.
Program` and yields :class:`~repro.lint.findings.Finding` objects
anchored at the *call site* (the place a human would edit).  Functions
are visited in sorted qualname order and call sites in source order,
so reports are deterministic.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.dataflow import dimensions as dims
from repro.lint.dataflow.linker import Program
from repro.lint.findings import Finding

DATAFLOW_RULE_IDS: Tuple[str, ...] = ("RL012", "RL013")

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


def check_program(
    program: Program, rule_ids: Optional[Set[str]] = None
) -> List[Finding]:
    """Run the selected dataflow rules; deterministic order, deduped."""
    wanted = set(rule_ids) if rule_ids is not None else set(DATAFLOW_RULE_IDS)
    checkers = {
        "RL012": check_dimension_conflicts,
        "RL013": check_base_conflicts,
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
