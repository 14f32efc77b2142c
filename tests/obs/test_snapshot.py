"""Snapshot schema tests: merge, relabel, diff, normalize, round-trip."""

import pytest

from repro.obs import (
    SNAPSHOT_SCHEMA,
    MetricsRegistry,
    canonical_json,
    diff_snapshots,
    empty_snapshot,
    load_snapshot,
    merge_snapshots,
    normalize_snapshot,
    relabel_snapshot,
    write_snapshot,
)


def _registry(counter=0.0, gauge=0.0, samples=()):
    reg = MetricsRegistry()
    if counter:
        reg.counter("c").add(counter)
    if gauge:
        reg.gauge("g").set(gauge)
    if samples:
        reg.histogram("h").observe_many(list(samples))
    return reg


class TestMerge:
    def test_counters_and_gauges_sum(self):
        merged = merge_snapshots(
            [_registry(counter=2, gauge=5).snapshot(),
             _registry(counter=3, gauge=7).snapshot()]
        )
        assert merged["counters"]["c"] == 5.0
        assert merged["gauges"]["g"] == 12.0

    def test_histogram_moments_merge_exactly_quantiles_drop(self):
        merged = merge_snapshots(
            [_registry(samples=[1.0, 2.0]).snapshot(),
             _registry(samples=[10.0]).snapshot()]
        )
        summary = merged["histograms"]["h"]
        assert summary["count"] == 3
        assert summary["sum"] == 13.0
        assert summary["min"] == 1.0
        assert summary["max"] == 10.0
        assert summary["p50"] is None
        assert summary["p99"] is None

    def test_merge_is_commutative(self):
        a = _registry(counter=1, samples=[1.0]).snapshot()
        b = _registry(counter=4, samples=[2.0, 3.0]).snapshot()
        assert canonical_json(merge_snapshots([a, b])) == canonical_json(
            merge_snapshots([b, a])
        )

    def test_info_first_wins_and_conflicts_flagged(self):
        a = MetricsRegistry()
        a.info("run").set("x")
        b = MetricsRegistry()
        b.info("run").set("y")
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["info"]["run"] == "x!conflict"
        agreed = merge_snapshots([a.snapshot(), a.snapshot()])
        assert agreed["info"]["run"] == "x"

    def test_empty_merge_is_empty_snapshot(self):
        assert merge_snapshots([]) == empty_snapshot()

    def test_wrong_schema_rejected(self):
        bad = empty_snapshot()
        bad["schema"] = "repro.obs/0"
        with pytest.raises(ValueError):
            merge_snapshots([bad])


class TestRelabel:
    def test_label_applied_to_every_section(self):
        reg = _registry(counter=1, gauge=2, samples=[1.0])
        reg.info("run").set("x")
        out = relabel_snapshot(reg.snapshot(), arm="baseline")
        assert out["counters"] == {"c{arm=baseline}": 1.0}
        assert out["gauges"] == {"g{arm=baseline}": 2.0}
        assert "h{arm=baseline}" in out["histograms"]
        assert out["info"] == {"run{arm=baseline}": "x"}

    def test_merges_with_existing_labels(self):
        reg = MetricsRegistry()
        reg.counter("c", pool="e0").add()
        out = relabel_snapshot(reg.snapshot(), arm="m")
        assert list(out["counters"]) == ["c{arm=m,pool=e0}"]

    def test_collision_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("c", arm="already").add()
        with pytest.raises(ValueError):
            relabel_snapshot(reg.snapshot(), arm="again")


class TestDiff:
    def test_identical_snapshots_diff_empty(self):
        snap = _registry(counter=1, samples=[1.0]).snapshot()
        assert diff_snapshots(snap, snap) == []

    def test_single_counter_perturbation_is_detected(self):
        a = _registry(counter=5).snapshot()
        b = _registry(counter=6).snapshot()
        diffs = diff_snapshots(a, b)
        assert diffs == [
            {"section": "counters", "metric": "c", "a": 5.0, "b": 6.0}
        ]

    def test_missing_metric_reports_none(self):
        a = _registry(counter=1).snapshot()
        diffs = diff_snapshots(a, empty_snapshot())
        assert diffs == [
            {"section": "counters", "metric": "c", "a": 1.0, "b": None}
        ]

    def test_histograms_diff_fieldwise(self):
        a = _registry(samples=[1.0]).snapshot()
        b = _registry(samples=[2.0]).snapshot()
        metrics = {d["metric"] for d in diff_snapshots(a, b)}
        assert "h.sum" in metrics
        assert "h.count" not in metrics  # both observed once


class TestNormalizeAndRoundtrip:
    def test_normalize_rounds_to_significant_digits(self):
        reg = MetricsRegistry()
        reg.counter("c").add(1 / 3)
        snap = normalize_snapshot(reg.snapshot())
        assert snap["counters"]["c"] == 0.333333333333

    def test_normalize_preserves_ints_bools_none(self):
        snap = _registry(samples=[1.0]).snapshot()
        out = normalize_snapshot(snap)
        assert out["histograms"]["h"]["count"] == 1
        assert isinstance(out["histograms"]["h"]["count"], int)

    def test_canonical_json_is_stable(self):
        snap = _registry(counter=1).snapshot()
        text = canonical_json(snap)
        assert text.endswith("\n")
        assert canonical_json(snap) == text

    def test_write_then_load(self, tmp_path):
        path = str(tmp_path / "snap.json")
        snap = normalize_snapshot(_registry(counter=2, samples=[1.0]).snapshot())
        write_snapshot(path, snap)
        assert load_snapshot(path) == snap

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/9"}')
        with pytest.raises(ValueError):
            load_snapshot(str(path))

    def test_schema_constant(self):
        assert empty_snapshot()["schema"] == SNAPSHOT_SCHEMA == "repro.obs/1"


def _raw(counters=(), gauges=()):
    """A hand-built snapshot whose dicts keep the given insertion order."""
    snap = empty_snapshot()
    snap["counters"] = dict(counters)
    snap["gauges"] = dict(gauges)
    return snap


class TestMergeKeyOrderInvariance:
    """Worker snapshots that carry the same keys in different insertion
    orders merge to bit-identical floats.

    merge_snapshots sums each key over the snapshots in the order it is
    given them (grid order), so the order keys are visited inside one
    snapshot never enters a key's sum.  These tests pin that property;
    they pass with the sorted() key visits removed, so they are not a
    test of those sorts.
    """

    # Values chosen so any accumulation-order slip shows up in the low
    # bits: large/small magnitudes that cancel, and sums like 0.1 + 0.2
    # whose rounding depends on association.
    ITEMS = (
        ("energy.hbm{engine=0}", 1e16),
        ("energy.lpddr{engine=0}", 0.1),
        ("energy.mrm{engine=0}", -1e16),
        ("energy.total{engine=0}", 0.2),
    )

    @staticmethod
    def _rotations(items):
        return [items[i:] + items[:i] for i in range(len(items))]

    def test_insertion_order_never_changes_the_merge(self):
        reference = None
        for worker_orders in (
            self._rotations(self.ITEMS),
            [tuple(reversed(order)) for order in self._rotations(self.ITEMS)],
        ):
            snaps = [_raw(counters=order, gauges=order) for order in worker_orders]
            merged = merge_snapshots(snaps)
            if reference is None:
                reference = merged
            # Exact float equality, not approx: the merge is documented
            # as bit-identical across insertion histories.
            assert merged == reference
            assert canonical_json(merged) == canonical_json(reference)

    def test_merged_sections_are_key_sorted(self):
        snaps = [_raw(counters=tuple(reversed(self.ITEMS)))]
        merged = merge_snapshots(snaps)
        keys = list(merged["counters"])
        assert keys == sorted(keys)

    def test_serial_vs_chunked_worker_delivery_identical(self):
        """Four workers each hand back the same logical snapshots with
        scrambled key order; merging in grid order must equal the
        canonical (sorted-insertion) serial merge bit-for-bit."""
        orders = self._rotations(self.ITEMS)
        scrambled = [_raw(counters=order, gauges=order) for order in orders]
        canonical = [
            _raw(counters=sorted(order), gauges=sorted(order)) for order in orders
        ]
        assert merge_snapshots(scrambled) == merge_snapshots(canonical)
