"""Tests for DCM policies and data-object descriptors."""

import pytest

from repro.core.dcm import (
    FixedRetentionPolicy,
    LifetimeMatchedPolicy,
    RetentionClassPolicy,
    evaluate_policy,
)
from repro.core.placement import (
    REDEPLOY_INTERVAL_S,
    AccessProfile,
    DataKind,
    DataObject,
    activations_object,
    kv_cache_object,
    weights_object,
)
from repro.units import DAY, HOUR, MINUTE, MiB, YEAR


def make_objects(n=10, lifetime_s=HOUR):
    return [
        DataObject(
            kind=DataKind.KV_CACHE,
            size_bytes=4 * MiB,
            lifetime_s=lifetime_s,
            access=AccessProfile(read_bytes_per_s=1e9, write_bytes_per_s=1e6),
        )
        for _ in range(n)
    ]


class TestDataObject:
    def test_validation(self):
        with pytest.raises(ValueError):
            DataObject(
                DataKind.OTHER, 0, HOUR,
                AccessProfile(1.0, 1.0),
            )
        with pytest.raises(ValueError):
            AccessProfile(read_bytes_per_s=-1.0, write_bytes_per_s=0.0)

    def test_read_write_ratio(self):
        profile = AccessProfile(read_bytes_per_s=1000.0, write_bytes_per_s=1.0)
        assert profile.read_write_ratio == 1000.0
        assert AccessProfile(1.0, 0.0).read_write_ratio == float("inf")

    def test_unique_ids_and_names(self):
        a, b = make_objects(2)
        assert a.object_id != b.object_id
        assert a.name != b.name


class TestFactories:
    def test_weights_object(self):
        obj = weights_object(100 * MiB, read_bytes_per_s=1e12)
        assert obj.kind is DataKind.WEIGHTS
        assert obj.lifetime_s == REDEPLOY_INTERVAL_S == 7 * DAY
        assert obj.access.read_write_ratio > 1000

    def test_kv_cache_object(self):
        obj = kv_cache_object(30 * MiB, read_bytes_per_s=1e11,
                              append_bytes_per_s=1e7)
        assert obj.kind is DataKind.KV_CACHE

    def test_activations_object(self):
        obj = activations_object(2 * MiB, bandwidth_bytes_per_s=1e12)
        assert obj.kind is DataKind.ACTIVATIONS
        assert obj.lifetime_s < 1.0


class TestPolicies:
    def test_fixed_ignores_lifetime(self):
        policy = FixedRetentionPolicy(DAY)
        short, long = make_objects(1, MINUTE)[0], make_objects(1, DAY)[0]
        assert policy.retention_for(short) == DAY
        assert policy.retention_for(long) == DAY

    def test_matched_scales_with_lifetime(self):
        policy = LifetimeMatchedPolicy()
        obj = make_objects(1, HOUR)[0]
        assert policy.retention_for(obj) == pytest.approx(1.2 * HOUR)

    def test_class_policy_picks_covering_class(self):
        policy = RetentionClassPolicy(classes=[MINUTE, HOUR, DAY])
        obj = make_objects(1, lifetime_s=30 * MINUTE)[0]
        assert policy.retention_for(obj) == HOUR

    def test_class_policy_covers_the_margin(self):
        policy = RetentionClassPolicy(classes=[MINUTE, HOUR, DAY])
        obj = make_objects(1, lifetime_s=55 * MINUTE)[0]  # x1.2 > 1 h
        assert policy.retention_for(obj) == DAY

    def test_class_policy_tops_out(self):
        policy = RetentionClassPolicy(classes=[MINUTE, HOUR])
        obj = make_objects(1, lifetime_s=DAY)[0]
        assert policy.retention_for(obj) == HOUR

    def test_policy_names(self):
        assert "fixed" in FixedRetentionPolicy(60.0).name
        assert "matched" in LifetimeMatchedPolicy().name
        assert "classes" in RetentionClassPolicy().name

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedRetentionPolicy(0.0)
        with pytest.raises(ValueError):
            RetentionClassPolicy(classes=[])


class TestEvaluatePolicy:
    def test_matched_beats_fixed_long_retention_on_energy(self, small_mrm):
        """The E8 claim: lifetime matching saves write energy vs a fixed
        maximum-retention (SCM-style) policy."""
        objects = make_objects(20, lifetime_s=10 * MINUTE)
        fixed = evaluate_policy(
            FixedRetentionPolicy(30 * DAY), objects, small_mrm
        )
        matched = evaluate_policy(LifetimeMatchedPolicy(), objects, small_mrm)
        assert matched.total_energy_j < fixed.total_energy_j
        assert matched.damage_fraction < fixed.damage_fraction

    def test_underprovisioned_fixed_policy_pays_refreshes(self, small_mrm):
        objects = make_objects(5, lifetime_s=HOUR)
        fixed_short = evaluate_policy(
            FixedRetentionPolicy(10 * MINUTE), objects, small_mrm
        )
        assert fixed_short.refreshes == 5 * 5  # ceil(60/10) - 1 per object
        assert fixed_short.refresh_energy_j > 0

    def test_matched_policy_no_refreshes(self, small_mrm):
        objects = make_objects(5, lifetime_s=HOUR)
        matched = evaluate_policy(LifetimeMatchedPolicy(), objects, small_mrm)
        assert matched.refreshes == 0

    def test_score_accounting(self, small_mrm):
        objects = make_objects(3)
        score = evaluate_policy(LifetimeMatchedPolicy(), objects, small_mrm)
        assert score.objects == 3
        assert score.bytes_written == sum(o.size_bytes for o in objects)
