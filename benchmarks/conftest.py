"""Benchmark-suite configuration.

Every file here regenerates one table/figure of the paper (see the
experiment index in DESIGN.md).  Run with::

    pytest benchmarks/ --benchmark-only

Each bench prints its regenerated table (directly to the terminal,
bypassing pytest capture, so the experiment record always appears in
the run log) and *asserts* the paper's qualitative shape, so the
reproduction is verified on every run.

The machinery suites (``perf/``, ``obs/``, ``faults/``) also record
measurements through the :func:`bench_record` fixture: each suite that
records anything appends one run entry to ``BENCH_sim.json`` at the repo
root, so successive runs form a trajectory.  The file survives across
runs; CI uploads it as an artifact.
"""

import json
import os
import sys
import time
from pathlib import Path

import pytest

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_sim.json"

#: Keys every run entry carries before any bench records into it.
_RUN_TAGS = frozenset({"suite", "timestamp", "tiny", "cpus"})


def _load_doc():
    if BENCH_PATH.exists():
        try:
            doc = json.loads(BENCH_PATH.read_text())
            if isinstance(doc, dict) and doc.get("schema") == 1:
                doc.setdefault("runs", [])
                return doc
        except (ValueError, OSError):
            pass
    return {"schema": 1, "runs": []}


@pytest.fixture(scope="session")
def bench_runs():
    """Run entries by suite; flushed to ``BENCH_sim.json`` at session end."""
    runs = {}
    yield runs
    # Only persist suites where at least one test recorded a measurement.
    measured = [run for run in runs.values() if set(run) - _RUN_TAGS]
    if not measured:
        return
    doc = _load_doc()
    doc["runs"].extend(measured)
    BENCH_PATH.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )


@pytest.fixture
def bench_record(request, bench_runs):
    """The mutable run entry of the calling test's suite (its directory
    under ``benchmarks/``), tagged with ``suite``, ``timestamp``,
    ``tiny`` and ``cpus``."""
    suite = request.path.parent.name
    if suite not in bench_runs:
        bench_runs[suite] = {
            "suite": suite,
            "timestamp": time.time(),
            "tiny": os.environ.get("REPRO_PERF_TINY") == "1",
            "cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
        }
    return bench_runs[suite]


@pytest.fixture
def report(request):
    """Print a titled experiment block.

    Temporarily disables pytest's output capture so the tables show up
    even without ``-s`` — the benchmark log doubles as the experiment
    record (tee'd into bench_output.txt).
    """
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _report(title: str, body: str) -> None:
        def emit() -> None:
            print()
            print("=" * 72)
            print(title)
            print("=" * 72)
            print(body)
            sys.stdout.flush()

        if capman is not None:
            with capman.global_and_fixture_disabled():
                emit()
        else:  # pragma: no cover - capture plugin always present
            emit()

    return _report
