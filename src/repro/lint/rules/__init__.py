"""Rule registry.

Adding a rule is three steps (see ``docs/STATIC_ANALYSIS.md``):

1. subclass :class:`~repro.lint.rules.base.Rule` in a module here,
2. give it the next free ``RL0xx`` id and a summary,
3. append the class to :data:`RULE_CLASSES`.

Ids are never reused: a retired rule's id stays retired, so a pragma
naming one is an unknown id rather than a silent reinterpretation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

from repro.lint.rules.base import Rule, RuleContext
from repro.lint.rules.determinism import (
    SetIterationRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.lint.rules.exceptions import SwallowedExceptionRule
from repro.lint.rules.floats import FloatEqualityRule
from repro.lint.rules.obs import ObsDeterminismRule
from repro.lint.rules.parallelism import AdHocParallelismRule
from repro.lint.rules.provenance import DeviceProvenanceRule
from repro.lint.rules.retries import UnboundedResilienceRule
from repro.lint.rules.simhygiene import SimProcessHygieneRule
from repro.lint.rules.units import MagicUnitLiteralRule, MixedSizeUnitsRule

#: Every registered rule, in id order.
RULE_CLASSES: List[Type[Rule]] = [
    MagicUnitLiteralRule,  # RL001
    MixedSizeUnitsRule,  # RL002
    UnseededRandomRule,  # RL003
    WallClockRule,  # RL004
    SetIterationRule,  # RL005
    FloatEqualityRule,  # RL006
    SimProcessHygieneRule,  # RL007
    DeviceProvenanceRule,  # RL008
    AdHocParallelismRule,  # RL009
    SwallowedExceptionRule,  # RL010
    ObsDeterminismRule,  # RL011
    UnboundedResilienceRule,  # RL020 (RL012-RL016 are interprocedural)
]


def all_rule_ids() -> Set[str]:
    """Every registered id: per-file (RL001-RL011, RL020) and dataflow
    (RL012-RL016)."""
    # Imported lazily: the dataflow modules use rules.base helpers, so a
    # top-level import here would be circular.
    from repro.lint.dataflow.rules import DATAFLOW_RULE_IDS

    return {c.rule_id for c in RULE_CLASSES} | set(DATAFLOW_RULE_IDS)


def split_selection(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> Tuple[List[Type[Rule]], Set[str]]:
    """Resolve ``--select`` / ``--ignore`` across both rule families.

    Returns ``(per_file_rule_classes, dataflow_rule_ids)``.  Unknown ids
    in either list raise ``ValueError`` — a typo'd ``--select RL013``
    silently matching nothing would defeat the point of selecting.
    """
    from repro.lint.dataflow.rules import DATAFLOW_RULE_IDS

    known = all_rule_ids()
    wanted = {s.upper() for s in select} if select else None
    dropped = {s.upper() for s in ignore} if ignore else set()
    for ids in (wanted or set(), dropped):
        unknown = ids - known
        if unknown:
            raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
    classes = [
        c
        for c in RULE_CLASSES
        if (wanted is None or c.rule_id in wanted) and c.rule_id not in dropped
    ]
    dataflow_ids = {
        rid
        for rid in DATAFLOW_RULE_IDS
        if (wanted is None or rid in wanted) and rid not in dropped
    }
    return classes, dataflow_ids


def get_rule_classes(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Type[Rule]]:
    """The per-file registry filtered by ``--select`` / ``--ignore``."""
    classes, _ = split_selection(select, ignore)
    return classes


def rule_catalog() -> Dict[str, str]:
    """``{rule_id: summary}`` for ``--list-rules`` and the docs test,
    covering per-file and dataflow rules."""
    from repro.lint.dataflow.rules import dataflow_catalog

    catalog = {cls.rule_id: cls.summary for cls in RULE_CLASSES}
    catalog.update(dataflow_catalog())
    return dict(sorted(catalog.items()))


__all__ = [
    "Rule",
    "RuleContext",
    "RULE_CLASSES",
    "all_rule_ids",
    "get_rule_classes",
    "rule_catalog",
    "split_selection",
]
