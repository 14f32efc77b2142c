"""Physical-dimension inference for expressions, names and annotations.

A *dimension* here is a coarse unit tag (``"bytes"``, ``"seconds"``,
``"joules"``, ``"watts"``, ``"ratio"``, ``"count"``, plus the scaled
size tags ``"gib"``/``"gb"``/... for values counted in whole units
rather than bytes).  A *base* is the size-constant family an expression
was built from: ``"binary"`` (KiB/MiB/GiB/TiB) or ``"decimal"``
(KB/MB/GB/TB).

Three inference sources, in priority order:

1. annotations — the ``repro.units`` quantity aliases (``Bytes``,
   ``Seconds``, ``Joules``, ``Watts``, ``Ratio``, ``Count``);
2. ``repro.units`` constants appearing in the expression (``3 * GiB``
   is bytes with a binary base);
3. naming conventions (``*_bytes``, ``*_s``, ``*_j``, ``*_gib``, ...).

Rates are deliberately out of the lattice: any name containing
``_per_`` infers nothing, so ``bandwidth_bytes_per_s`` is never
mistaken for seconds.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.lint.rules.base import dotted_name

# Dimension tags ------------------------------------------------------------
BYTES = "bytes"
SECONDS = "seconds"
JOULES = "joules"
WATTS = "watts"
RATIO = "ratio"
COUNT = "count"

#: Dimensions that imply float arithmetic (non-associative addition).
FLOAT_DIMENSIONS: Set[str] = {SECONDS, JOULES, WATTS, RATIO}

#: Base tags for byte quantities.
BINARY = "binary"
DECIMAL = "decimal"

#: (dimension, base) — ``(None, None)`` means "no idea".
Quantity = Tuple[Optional[str], Optional[str]]

UNKNOWN: Quantity = (None, None)

#: repro.units size constants and the base family they belong to.
BINARY_SIZE_CONSTANTS: Set[str] = {"KiB", "MiB", "GiB", "TiB"}
DECIMAL_SIZE_CONSTANTS: Set[str] = {"KB", "MB", "GB", "TB"}

#: repro.units constant name -> dimension.
UNIT_CONSTANT_DIMENSIONS: Dict[str, str] = {
    **{name: BYTES for name in BINARY_SIZE_CONSTANTS},
    **{name: BYTES for name in DECIMAL_SIZE_CONSTANTS},
    "NANOSECOND": SECONDS,
    "MICROSECOND": SECONDS,
    "MILLISECOND": SECONDS,
    "SECOND": SECONDS,
    "MINUTE": SECONDS,
    "HOUR": SECONDS,
    "DAY": SECONDS,
    "YEAR": SECONDS,
    "PICOJOULE": JOULES,
    "NANOJOULE": JOULES,
    "MICROJOULE": JOULES,
    "MILLIJOULE": JOULES,
    "JOULE": JOULES,
    "KWH": JOULES,
    "WATT": WATTS,
    "KILOWATT": WATTS,
    "MEGAWATT": WATTS,
}

#: Name-suffix conventions, longest match first.  Scaled size suffixes
#: get their own dimension tag: passing ``capacity_gib`` (a count of
#: gibibytes) into a ``*_bytes`` parameter is a 2**30x slip even though
#: both are "sizes".
SUFFIX_DIMENSIONS: Tuple[Tuple[str, str], ...] = (
    ("_bytes", BYTES),
    ("_byte", BYTES),
    ("_kib", "kib"),
    ("_mib", "mib"),
    ("_gib", "gib"),
    ("_tib", "tib"),
    ("_kb", "kb"),
    ("_mb", "mb"),
    ("_gb", "gb"),
    ("_tb", "tb"),
    ("_seconds", SECONDS),
    ("_secs", SECONDS),
    ("_sec", SECONDS),
    ("_s", SECONDS),
    ("_ms", "milliseconds"),
    ("_us", "microseconds"),
    ("_ns", "nanoseconds"),
    ("_joules", JOULES),
    ("_j", JOULES),
    ("_pj", "picojoules"),
    ("_watts", WATTS),
    ("_w", WATTS),
    ("_ratio", RATIO),
    ("_fraction", RATIO),
    ("_frac", RATIO),
    ("_probability", RATIO),
    ("_prob", RATIO),
    ("_counts", COUNT),
    ("_count", COUNT),
)

#: ``repro.units`` annotation aliases -> dimension.
ANNOTATION_DIMENSIONS: Dict[str, str] = {
    "Bytes": BYTES,
    "Seconds": SECONDS,
    "Joules": JOULES,
    "Watts": WATTS,
    "Ratio": RATIO,
    "Count": COUNT,
}

#: Dimensions a conflict report can name meaningfully.
_DIMENSION_LABELS: Dict[str, str] = {
    BYTES: "bytes",
    SECONDS: "seconds",
    JOULES: "joules",
    WATTS: "watts",
    RATIO: "a ratio",
    COUNT: "a count",
    "kib": "KiB units",
    "mib": "MiB units",
    "gib": "GiB units",
    "tib": "TiB units",
    "kb": "KB units",
    "mb": "MB units",
    "gb": "GB units",
    "tb": "TB units",
    "milliseconds": "milliseconds",
    "microseconds": "microseconds",
    "nanoseconds": "nanoseconds",
    "picojoules": "picojoules",
}


def describe_dimension(dim: str) -> str:
    return _DIMENSION_LABELS.get(dim, dim)


def dimension_of_name(name: str) -> Optional[str]:
    """Dimension implied by a variable/parameter/field name, or None.

    ``_per_`` anywhere in the name marks a rate, which this lattice
    does not model — better silent than wrong.
    """
    if "_per_" in name or name.endswith("_per"):
        return None
    lowered = name.lower()
    for suffix, dim in SUFFIX_DIMENSIONS:
        if lowered.endswith(suffix) and len(lowered) > len(suffix):
            return dim
    if lowered.startswith(("n_", "num_")) or lowered in ("n", "count"):
        return COUNT
    return None


def dimension_of_annotation(annotation: Optional[ast.expr]) -> Optional[str]:
    """Dimension implied by a ``repro.units`` quantity alias annotation."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return ANNOTATION_DIMENSIONS.get(annotation.value)
    name = dotted_name(annotation)
    if not name:
        return None
    return ANNOTATION_DIMENSIONS.get(name.split(".")[-1])


def _unit_constant(name: str) -> Optional[str]:
    """The repro.units constant a bare or dotted name refers to."""
    tail = name.split(".")[-1]
    if tail in UNIT_CONSTANT_DIMENSIONS:
        return tail
    return None


def bases_in(node: ast.AST) -> Set[str]:
    """Size-constant base families referenced anywhere under ``node``."""
    bases: Set[str] = set()
    for sub in ast.walk(node):
        name = ""
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name in BINARY_SIZE_CONSTANTS:
            bases.add(BINARY)
        elif name in DECIMAL_SIZE_CONSTANTS:
            bases.add(DECIMAL)
    return bases


def base_of(node: ast.AST) -> Optional[str]:
    """The single base family under ``node``, or None (none, or mixed —
    mixing inside one expression is RL002's per-file territory)."""
    bases = bases_in(node)
    if len(bases) == 1:
        return next(iter(bases))
    return None


class ExpressionInferencer:
    """Infers a :data:`Quantity` for an expression.

    ``env`` maps local variable names to previously inferred quantities
    (straight-line assignments only — last write wins, no control-flow
    joins; this is a linter, not a verifier).
    """

    def __init__(self, env: Optional[Dict[str, Quantity]] = None) -> None:
        self.env = env or {}

    # -- leaves -----------------------------------------------------------
    def _name_quantity(self, name: str) -> Quantity:
        constant = _unit_constant(name)
        if constant is not None:
            dim = UNIT_CONSTANT_DIMENSIONS[constant]
            if constant in BINARY_SIZE_CONSTANTS:
                return (dim, BINARY)
            if constant in DECIMAL_SIZE_CONSTANTS:
                return (dim, DECIMAL)
            return (dim, None)
        dim = dimension_of_name(name.split(".")[-1])
        if dim is not None:
            return (dim, None)
        return UNKNOWN

    # -- the recursive walk ----------------------------------------------
    def infer(self, node: ast.AST) -> Quantity:
        if isinstance(node, ast.Name):
            q = self._name_quantity(node.id)
            if q is UNKNOWN and node.id in self.env:
                return self.env[node.id]
            return q
        if isinstance(node, ast.Attribute):
            return self._name_quantity(dotted_name(node) or node.attr)
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand)
        if isinstance(node, ast.IfExp):
            body, orelse = self.infer(node.body), self.infer(node.orelse)
            return body if body == orelse else UNKNOWN
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, (ast.Call, ast.Subscript, ast.Constant)):
            return UNKNOWN
        return UNKNOWN

    def _binop(self, node: ast.BinOp) -> Quantity:
        (ldim, _), (rdim, _) = self.infer(node.left), self.infer(node.right)
        base = base_of(node)
        if isinstance(node.op, ast.Mult):
            dim = self._mult(ldim, rdim)
        elif isinstance(node.op, (ast.Div, ast.FloorDiv)):
            dim = self._div(ldim, rdim)
        elif isinstance(node.op, (ast.Add, ast.Sub)):
            if ldim is not None and rdim is not None:
                dim = ldim if ldim == rdim else None
            else:
                dim = ldim if ldim is not None else rdim
        else:
            dim = None
        return (dim, base)

    @staticmethod
    def _mult(a: Optional[str], b: Optional[str]) -> Optional[str]:
        if {a, b} == {WATTS, SECONDS}:
            return JOULES
        if a == COUNT:
            return b
        if b == COUNT:
            return a
        if a is not None and b is None:
            return a
        if b is not None and a is None:
            return b
        return None

    @staticmethod
    def _div(a: Optional[str], b: Optional[str]) -> Optional[str]:
        if a is not None and b is None:
            return a
        if a is not None and a == b:
            return RATIO
        if a == JOULES and b == SECONDS:
            return WATTS
        if a == JOULES and b == WATTS:
            return SECONDS
        return None


def conflict(a: str, b: str) -> bool:
    """Do two inferred dimensions disagree in a way worth flagging?

    Every pair of *different* known dimensions conflicts except
    count-vs-ratio, which naming conventions cannot reliably tell
    apart (``utilization`` vs ``slots``).
    """
    if a == b:
        return False
    if {a, b} == {COUNT, RATIO}:
        return False
    return True
