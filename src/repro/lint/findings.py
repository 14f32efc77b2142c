"""The finding data model shared by every lint rule.

A :class:`Finding` is one violation at one source location.  Findings
are value objects: the engine produces them, the suppression layer
filters them, and the CLI renders them.  Every rule is an error: a new
finding fails the run unless an inline pragma suppresses it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location.

    Attributes
    ----------
    rule_id:
        The rule that fired, e.g. ``"RL003"``.
    path:
        Path of the offending file, as given to the engine (the engine
        normalises to a repo-relative posix path when it can).
    line / col:
        1-based line and 0-based column of the offending node.
    message:
        What is wrong, concretely (includes the offending snippet).
    fix_hint:
        How to fix it — a constant name to use, an idiom to adopt, or
        the suppression syntax when the code is intentionally exempt.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    fix_hint: str = ""

    def render(self) -> str:
        """One human-readable line, plus a hint line when there is one."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.fix_hint:
            text += f"\n    hint: {self.fix_hint}"
        return text


def sort_findings(findings: list) -> list:
    """Deterministic report order: path, then line, then rule id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule_id))
