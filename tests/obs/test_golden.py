"""Golden-snapshot regression tests.

Each test runs a deterministic experiment, renders its results as a
normalized ``repro.obs/1`` snapshot, and compares canonical JSON
byte-for-byte against a file committed under ``tests/obs/golden/``.
A failure prints the flat metric diff (what changed, by how much);
intentional changes are re-blessed with::

    python -m pytest tests/obs -q --update-golden

Two snapshot sources are covered:

- *metricized results* — E1 (decode read:write ratios) and F1
  (Figure 1 endurance) write their numeric outputs into a registry as
  gauges, so any drift in the headline tables shows up as a snapshot
  diff;
- *live instrumentation* — the faults paired-arm runs (R1 controller,
  R2 chaos) snapshot the registries the controller, injector and
  serving engines actually incremented during the run, arms labeled
  and merged.
"""

import os

import pytest

from repro.obs import (
    MetricsRegistry,
    canonical_json,
    diff_snapshots,
    load_snapshot,
    merge_snapshots,
    normalize_snapshot,
    relabel_snapshot,
    write_snapshot,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _assert_matches_golden(name, snapshot, update):
    """Byte-compare a normalized snapshot against its committed golden."""
    snapshot = normalize_snapshot(snapshot)
    path = os.path.join(GOLDEN_DIR, name)
    if update:
        write_snapshot(path, snapshot)
        return
    if not os.path.exists(path):
        pytest.fail(
            f"missing golden {name}; generate it with --update-golden"
        )
    golden = load_snapshot(path)
    if canonical_json(snapshot) != canonical_json(golden):
        diffs = diff_snapshots(golden, snapshot)
        detail = "\n".join(
            f"  [{d['section']}] {d['metric']}: {d['a']!r} -> {d['b']!r}"
            for d in diffs
        )
        pytest.fail(
            f"snapshot drifted from {name} ({len(diffs)} metric(s)):\n"
            f"{detail}\nre-bless with --update-golden if intentional"
        )


def _e1_snapshot():
    from benchmarks.bench_e1_read_write_ratio import run_ratios

    reg = MetricsRegistry()
    reg.info("experiment").set("e1_read_write_ratio")
    for model, context, batch, _label, ratio in run_ratios():
        reg.gauge(
            "e1.read_write_ratio",
            model=model, context=context, batch=batch,
        ).set(ratio)
    return reg.snapshot()


def _fig1_snapshot():
    from repro.endurance.requirements import figure1_data

    data = figure1_data()
    reg = MetricsRegistry()
    reg.info("experiment").set("fig1_endurance")
    reg.info("fig1.model").set(data["model"])
    for requirement in data["requirements"]:
        reg.gauge(
            "fig1.required_writes_per_cell", workload=requirement.name
        ).set(requirement.writes_per_cell)
    low, high = data["kv_range"]
    reg.gauge("fig1.kv_writes_per_cell", bound="decode-only").set(
        low.writes_per_cell
    )
    reg.gauge("fig1.kv_writes_per_cell", bound="prefill-only").set(
        high.writes_per_cell
    )
    for product, endurance in data["products"].items():
        reg.gauge("fig1.endurance_writes_per_cell", product=product).set(
            endurance
        )
    for tech, endurance in data["potentials"].items():
        reg.gauge("fig1.potential_writes_per_cell", technology=tech).set(
            endurance
        )
    return reg.snapshot()


#: Small-but-eventful controller point: accelerated faults, short run.
FAULTS_POINT = {
    "rate_multiplier": 4000.0,
    "duration_s": 900.0,
    "step_s": 300.0,
    "observe": True,
}


def _faults_snapshot():
    from repro.faults.experiment import controller_point

    row = controller_point(FAULTS_POINT, seed=0)
    return merge_snapshots(
        [
            relabel_snapshot(row[arm]["obs"], arm=arm)
            for arm in ("baseline", "mitigated")
        ]
    )


#: Struck chaos point: the mitigated arm crashes engines and recomputes
#: displaced KV, the baseline arm fails residents — together they pin
#: the crash teardown end to end.
CHAOS_POINT = {
    "strike_rate_per_hour": 720.0,
    "num_requests": 40,
    "horizon_s": 20.0,
    "observe": True,
}


def _chaos_snapshot():
    from repro.faults.experiment import chaos_point

    row = chaos_point(CHAOS_POINT, seed=1)
    snapshots = []
    for arm in ("baseline", "mitigated"):
        result = row[arm]
        snapshots.append(relabel_snapshot(result["obs"], arm=arm))
        fields = MetricsRegistry()
        for name, value in result.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                fields.gauge(f"chaos.{name}", arm=arm).set(value)
        snapshots.append(fields.snapshot())
    return merge_snapshots(snapshots)


def _e13_snapshot():
    from repro.fleet.experiment import run_e13

    return run_e13(tiny=True, root_seed=0)["obs"]


def _e14_snapshot():
    from repro.fleet.experiment import run_e14

    return run_e14(tiny=True, root_seed=0)["obs"]


class TestGoldenSnapshots:
    def test_e1_read_write_ratio(self, update_golden):
        _assert_matches_golden(
            "e1_read_write_ratio.json", _e1_snapshot(), update_golden
        )

    def test_fig1_endurance(self, update_golden):
        _assert_matches_golden(
            "fig1_endurance.json", _fig1_snapshot(), update_golden
        )

    def test_faults_controller_paired_arms(self, update_golden):
        _assert_matches_golden(
            "faults_controller_arms.json", _faults_snapshot(), update_golden
        )

    def test_faults_chaos_paired_arms(self, update_golden):
        _assert_matches_golden(
            "faults_chaos_arms.json", _chaos_snapshot(), update_golden
        )

    def test_e13_fleet_routing_arms(self, update_golden):
        _assert_matches_golden(
            "e13_fleet_routing_arms.json", _e13_snapshot(), update_golden
        )

    def test_e14_fleet_scaling_arms(self, update_golden):
        _assert_matches_golden(
            "e14_fleet_scaling_arms.json", _e14_snapshot(), update_golden
        )

    def test_single_counter_perturbation_fails(self):
        """The guardrail works: a one-count bump is a loud failure."""
        perturbed = _faults_snapshot()
        name = next(iter(perturbed["counters"]))
        perturbed["counters"][name] += 1
        with pytest.raises(pytest.fail.Exception, match="drifted"):
            _assert_matches_golden(
                "faults_controller_arms.json", perturbed, update=False
            )

    def test_goldens_are_normalized_canonical_files(self):
        """Committed files are byte-stable under their own pipeline."""
        for name in sorted(os.listdir(GOLDEN_DIR)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(GOLDEN_DIR, name)
            snap = load_snapshot(path)
            assert canonical_json(normalize_snapshot(snap)) == open(path).read()
