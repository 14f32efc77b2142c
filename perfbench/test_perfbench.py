"""Self-tests for the benchmark code, on the tiny configs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_restores_bindings_and_keeps_the_fingerprint(name):
    workload, config = workloads.setup(name, tiny=True)
    before = tracing.bindings()
    plain = workload.run(config, 5)
    spans = tracing.Spans()
    with tracing.traced(spans, MetricsRegistry()):
        traced = workload.run(config, 5)
    assert all(now is then for now, then in zip(tracing.bindings(), before))
    assert traced.fingerprint == plain.fingerprint
    assert spans.spans
    assert all(span["end"] >= span["start"] for span in spans.spans)


def test_tracing_restores_bindings_when_the_unit_raises():
    before = tracing.bindings()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Spans(), MetricsRegistry()):
            raise RuntimeError("unit failed")
    assert all(now is then for now, then in zip(tracing.bindings(), before))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(
    name, trace, tmp_path, capsys
):
    code = bench.main([
        "--workload", name, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--tiny", "--out", str(tmp_path),
    ])
    assert code == 0
    result = _result(capsys)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {
        metric: entry["unit"] for metric, entry in result["metrics"].items()
    } == {entry["name"]: entry["unit"] for entry in section}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_a_changed_fingerprint_is_a_failed_operation():
    workload, config = workloads.setup("faults", tiny=True)
    first = workload.run(config, 1)
    second = workload.run(config, 1)
    assert bench.check_units([first, second])[1:] == (0, [])
    second.operations[0].fingerprint = "0" * 64
    attempted, failed, problems = bench.check_units([first, second])
    assert attempted == 2 * len(first.operations)
    assert failed == 1 and problems


def test_conservation_and_finiteness_checks():
    row = {
        "admitted": 5, "requests_completed": 4, "requests_failed": 0,
        "ttft_p99_s": float("nan"),
    }
    problems = workloads.cell_problems(row)
    assert any("conservation" in p for p in problems)
    assert any("ttft_p99_s" in p for p in problems)


def test_slo_miss_error_is_finite_when_the_des_never_misses():
    des = {"sla_attainment": {"interactive": 1.0},
           "sla_admitted": {"interactive": 50}}
    analytic = {"sla_attainment": {"interactive": 0.98}}
    assert reference.slo_miss_error(des, analytic) == pytest.approx(1.0)


def test_size_exponent_recovers_a_power_law():
    sizes = [250, 500, 1000, 2000, 4000]
    seconds = [1e-6 * n**1.4 for n in sizes]
    assert tracing.size_exponent(sizes, seconds) == pytest.approx(1.4)


def test_fails_without_a_result_outside_a_full_checkout(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "faults",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
