"""The simulator's runtime import graph stays free of the linter.

repro-lint is a development tool: importing the simulation, device,
fleet or fault packages must not load any ``repro.lint`` module, or
every simulator process pays the linter's import cost.  The check runs
in a fresh interpreter, because this test process has the linter loaded
already.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RUNTIME_PACKAGES = (
    "repro.sim",
    "repro.core",
    "repro.devices",
    "repro.fleet",
    "repro.faults",
    "repro.inference.analytic",
)


def test_runtime_packages_do_not_load_the_linter():
    probe = (
        "import importlib, sys\n"
        f"for name in {RUNTIME_PACKAGES!r}:\n"
        "    importlib.import_module(name)\n"
        "print('\\n'.join(sorted(m for m in sys.modules"
        " if m == 'repro.lint' or m.startswith('repro.lint.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split() == [], f"runtime imports loaded the linter: {out.split()}"
