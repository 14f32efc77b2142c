"""Inline suppression comments.

Two forms, mirroring the linters people already know:

- line-level::

      x = 1024  # repro-lint: disable=RL001
      y = 1024  # repro-lint: disable=RL001,RL002
      z = 1024  # repro-lint: disable=RL001, RL002 -- spaces are fine
      w = 1024  # repro-lint: disable=all

  A suppression on the line *above* a statement also applies, so long
  comments can live on their own line::

      # repro-lint: disable=RL008 -- calibration constant, see DESIGN.md
      pulse_energy = 1.3e-12

  A suppression on any *decorator* line also applies to the decorated
  ``def``/``class`` itself (findings anchor at the ``def`` line, which
  can sit several decorators below the comment)::

      @lru_cache(maxsize=None)  # repro-lint: disable=RL005 -- keys sorted
      def lookup(...): ...

- file-level, anywhere in the first 10 lines::

      # repro-lint: disable-file=RL005

Anything after the rule list (e.g. ``-- justification text``) is
ignored, and writing a justification there is encouraged.  A
``disable=`` naming an id that is not a registered rule is an error
(exit code 2): a typo'd pragma that silently suppresses nothing — or
the wrong thing — is worse than no pragma at all.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding

#: Lines scanned for ``disable-file`` pragmas.
FILE_PRAGMA_WINDOW = 10

_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*(disable|disable-file)=(.*)")
_ID_RE = re.compile(r"\s*([A-Za-z0-9]+)")
_SEP_RE = re.compile(r"\s*,")


def _parse_id_list(raw: str) -> Tuple[Set[str], List[str]]:
    """Parse a comma-separated id list; everything after the list (a
    ``-- justification``, say) is ignored.

    Returns ``(ids, malformed_tokens)`` — a trailing comma with nothing
    after it is recorded as malformed.
    """
    ids: Set[str] = set()
    rest = raw
    match = _ID_RE.match(rest)
    if match is None:
        return ids, ["<empty>"]
    while match is not None:
        ids.add(match.group(1).upper())
        rest = rest[match.end() :]
        sep = _SEP_RE.match(rest)
        if sep is None:
            break
        rest = rest[sep.end() :]
        match = _ID_RE.match(rest)
        if match is None:
            return ids, ["<trailing comma>"]
    if "ALL" in ids:
        return {"ALL"}, []
    return ids, []


def _comments(lines: Sequence[str]) -> Iterator[Tuple[int, str]]:
    """(lineno, comment text) for every real comment token.

    Tokenizing (rather than regex-scanning raw lines) keeps pragma
    templates inside string literals — fix-hint text, docstring
    examples — from being mistaken for live pragmas.  Falls back to
    scanning every line verbatim if tokenization fails.
    """
    source = "\n".join(lines) + "\n"
    if "repro-lint" not in source:
        return  # no pragma can be here: skip tokenizing
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, text in enumerate(lines, start=1):
            yield lineno, text
        return
    for token in tokens:
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


class SuppressionIndex:
    """Pre-parsed suppression pragmas for one file.

    Parameters
    ----------
    lines:
        The file's source lines.
    tree:
        The parsed module, if available — used to map pragmas on
        decorator lines onto the decorated definition's line.
    known_ids:
        Registered rule ids.  When given, a pragma naming an unknown id
        is recorded in :attr:`errors` (the CLI turns those into exit
        code 2).  ``None`` skips validation.
    """

    def __init__(
        self,
        lines: Sequence[str],
        tree: Optional[ast.Module] = None,
        known_ids: Optional[Set[str]] = None,
    ) -> None:
        #: line number (1-based) -> set of rule ids (or {"ALL"})
        self.by_line: Dict[int, Set[str]] = {}
        self.file_level: Set[str] = set()
        #: (lineno, offending token) for malformed/unknown pragmas.
        self.errors: List[Tuple[int, str]] = []
        for lineno, text in _comments(lines):
            match = _PRAGMA_RE.search(text)
            if match is None:
                continue
            ids, malformed = _parse_id_list(match.group(2))
            for token in malformed:
                self.errors.append((lineno, token))
            if known_ids is not None:
                for rule_id in sorted(ids - {"ALL"}):
                    if rule_id not in known_ids:
                        self.errors.append((lineno, rule_id))
            if not ids:
                continue
            if match.group(1) == "disable-file":
                if lineno <= FILE_PRAGMA_WINDOW:
                    self.file_level |= ids
            else:
                self.by_line.setdefault(lineno, set()).update(ids)
        if tree is not None and self.by_line:
            self._apply_decorator_pragmas(tree)

    def _apply_decorator_pragmas(self, tree: ast.Module) -> None:
        """A pragma on a decorator line also covers the decorated
        definition's own line."""
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if not node.decorator_list:
                continue
            gathered: Set[str] = set()
            for decorator in node.decorator_list:
                for lineno in range(
                    decorator.lineno,
                    getattr(decorator, "end_lineno", decorator.lineno) + 1,
                ):
                    gathered |= self.by_line.get(lineno, set())
            if gathered:
                self.by_line.setdefault(node.lineno, set()).update(gathered)

    def _ids_cover(self, ids: Set[str], rule_id: str) -> bool:
        return "ALL" in ids or rule_id.upper() in ids

    def is_suppressed(self, finding: Finding) -> bool:
        """True if an inline or file pragma covers this finding.

        A line pragma applies to its own line and to the line directly
        below it (comment-above style); decorator-line pragmas were
        already projected onto the decorated def's line.
        """
        if self._ids_cover(self.file_level, finding.rule_id):
            return True
        for lineno in (finding.line, finding.line - 1):
            ids = self.by_line.get(lineno)
            if ids and self._ids_cover(ids, finding.rule_id):
                return True
        return False

    def split(self, findings: Sequence[Finding]):
        """Partition findings into (kept, suppressed)."""
        kept: List[Finding] = []
        suppressed: List[Finding] = []
        for finding in findings:
            (suppressed if self.is_suppressed(finding) else kept).append(finding)
        return kept, suppressed
