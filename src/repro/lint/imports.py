"""Import-graph analysis: which modules can affect a simulation run?

The determinism rules (RL003-RL005) are strict inside the simulation
kernel and everything a simulation run can execute.  "Everything it can
execute" is approximated statically as the transitive closure of the
import graph in *both* directions from :mod:`repro.sim`:

- modules that ``repro.sim`` imports (its dependencies run inside the
  event loop), and
- modules that import ``repro.sim`` (they drive the loop and schedule
  the callbacks it runs).

This over-approximates (importing sim does not force you to use it) but
over-approximation is the right failure mode for a determinism
contract: the cost of a false positive is a one-line suppression with a
justification.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Optional, Set

#: The package whose determinism contract anchors the closure.
SIM_PACKAGE = "repro.sim"


def module_name_for(path: Path) -> Optional[str]:
    """Dotted module name of ``path``, if it sits under a ``repro``
    package root (``.../src/repro/sim/kernel.py`` -> ``repro.sim.kernel``)."""
    parts = list(path.with_suffix("").parts)
    if "repro" not in parts:
        return None
    idx = parts.index("repro")
    dotted = ".".join(parts[idx:])
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted


def _from_module(node: ast.ImportFrom, module: str) -> str:
    """The absolute module a ``from ... import`` reads, with relative
    imports resolved against ``module``'s package."""
    if not node.level:
        return node.module or ""
    package_parts = module.split(".")[:-1]
    prefix = ".".join(package_parts[: len(package_parts) - (node.level - 1)])
    if node.module:
        return f"{prefix}.{node.module}" if prefix else node.module
    return prefix


def imported_modules(tree: ast.AST, module: str) -> Set[str]:
    """Absolute dotted names this module imports (relative imports are
    resolved against ``module``'s package)."""
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            prefix = _from_module(node, module)
            if prefix:
                found.add(prefix)
                for alias in node.names:
                    found.add(f"{prefix}.{alias.name}")
    return found


def build_aliases(tree: ast.AST, module: str) -> Dict[str, str]:
    """Local name -> fully-qualified dotted target, from this file's
    imports: ``from time import sleep`` maps ``sleep`` to
    ``time.sleep`` and ``import numpy as np`` maps ``np`` to ``numpy``."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    # `import a.b` binds `a`; attribute chains keep the path.
                    head = alias.name.split(".")[0]
                    aliases.setdefault(head, head)
        elif isinstance(node, ast.ImportFrom):
            prefix = _from_module(node, module)
            if not prefix:
                continue
            for alias in node.names:
                if alias.name != "*":
                    aliases[alias.asname or alias.name] = f"{prefix}.{alias.name}"
    return aliases


class ImportGraph:
    """Bidirectional import closure over a set of parsed files."""

    def __init__(self) -> None:
        self._imports: Dict[str, Set[str]] = {}
        #: module -> known modules it imports (:meth:`_targets`).
        self._targets_memo: Dict[str, Set[str]] = {}

    def add(self, path: Path, tree: ast.AST) -> None:
        module = module_name_for(path)
        if module is None:
            return
        self._imports[module] = imported_modules(tree, module)
        self._targets_memo.clear()

    def _is_or_under(self, module: str, package: str) -> bool:
        return module == package or module.startswith(package + ".")

    def _resolve(self, imported: str) -> Set[str]:
        """Known modules an imported dotted name refers to (the module
        itself, a package prefix, or a ``from pkg import name`` alias)."""
        return {
            known
            for known in self._imports
            if self._is_or_under(imported, known) or self._is_or_under(known, imported)
        }

    def _targets(self, module: str) -> Set[str]:
        """Known modules ``module`` imports, computed once per module."""
        resolved = self._targets_memo.get(module)
        if resolved is None:
            resolved = set()
            for name in self._imports.get(module, ()):
                resolved |= self._resolve(name)
            self._targets_memo[module] = resolved
        return resolved

    def dependencies_of(self, roots: Set[str]) -> Set[str]:
        """Transitive closure of what ``roots`` import."""
        closure = set(roots)
        frontier = set(roots)
        while frontier:
            frontier = {
                t for m in frontier for t in self._targets(m)
            } - closure
            closure |= frontier
        return closure

    def dependents_of(self, roots: Set[str]) -> Set[str]:
        """Transitive closure of what imports ``roots``."""
        closure = set(roots)
        changed = True
        while changed:
            changed = False
            for module in self._imports:
                if module not in closure and self._targets(module) & closure:
                    closure.add(module)
                    changed = True
        return closure

    def determinism_critical(self) -> Set[str]:
        """Modules whose code can run inside (or drive) a simulation:
        the sim package, everything it imports (code the event loop
        executes), and everything that imports it (code that drives the
        loop and registers callbacks).  Dependencies-of-dependents are
        deliberately *not* pulled in — that mix would leak through
        shared leaf modules (``repro.units``) and mark the whole repo.
        """
        sim = {m for m in self._imports if self._is_or_under(m, SIM_PACKAGE)}
        return self.dependencies_of(sim) | self.dependents_of(sim)
