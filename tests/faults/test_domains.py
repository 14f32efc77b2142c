"""Tests for fault-domain topologies and correlated schedules."""

import numpy as np
import pytest

from repro.faults import (
    FaultDomain,
    FaultKind,
    FaultTopology,
    cluster_topology,
    generate_correlated_schedule,
    validate_domain_rates,
)
from repro.faults.domains import spread_magnitude
from repro.units import HOUR


def small_topology() -> FaultTopology:
    return FaultTopology(
        domains=(
            FaultDomain("engine-0", "engine", ("engine-0",)),
            FaultDomain("engine-1", "engine", ("engine-1",)),
            FaultDomain("pd0", "power", ("engine-0", "engine-1")),
        )
    )


def _domain(topology: FaultTopology, name: str) -> FaultDomain:
    return next(d for d in topology.domains if d.name == name)


class TestTopologyValidation:
    def test_valid_topology_roundtrips(self):
        topology = small_topology().validate()
        assert [d.name for d in topology.domains] == ["engine-0", "engine-1", "pd0"]
        assert _domain(topology, "pd0").level == "power"

    def test_no_domains_rejected(self):
        with pytest.raises(ValueError, match="no fault domains"):
            FaultTopology(domains=()).validate()

    def test_duplicate_domain_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultTopology(
                domains=(
                    FaultDomain("d", "engine", ("e0",)),
                    FaultDomain("d", "engine", ("e1",)),
                )
            ).validate()

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown domain level"):
            FaultTopology(
                domains=(FaultDomain("d", "blast-radius", ("e0",)),)
            ).validate()

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError, match="no members"):
            FaultTopology(
                domains=(FaultDomain("d", "engine", ()),)
            ).validate()

    def test_duplicate_member_rejected(self):
        with pytest.raises(ValueError, match="lists a member twice"):
            FaultTopology(
                domains=(FaultDomain("d", "engine", ("e0", "e0")),)
            ).validate()


class TestClusterTopology:
    def test_shape(self):
        topology = cluster_topology(3, engines_per_domain=2)
        names = [d.name for d in topology.domains]
        assert names == ["engine-0", "engine-1", "engine-2", "pd0", "pd1"]
        assert _domain(topology, "pd0").members == ("engine-0", "engine-1")
        assert _domain(topology, "pd1").members == ("engine-2",)

    def test_bank_groups_optional(self):
        topology = cluster_topology(2, banks_per_group=4)
        bank = _domain(topology, "bg0")
        assert bank.level == "bank-group"
        assert bank.member_kind() is FaultKind.BANK_FAILURE
        assert len(bank.members) == 4

    def test_member_kinds(self):
        topology = cluster_topology(2)
        assert (
            _domain(topology, "engine-0").member_kind()
            is FaultKind.ENGINE_CRASH
        )
        assert (
            _domain(topology, "pd0").member_kind() is FaultKind.ENGINE_CRASH
        )


class TestDomainRates:
    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError, match="unknown fault domain"):
            validate_domain_rates(small_topology(), {"nope": 1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite strike rate"):
            validate_domain_rates(small_topology(), {"engine-0": bad})

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="negative strike rate"):
            validate_domain_rates(small_topology(), {"engine-0": -1.0})


class TestSpreadMagnitude:
    def test_in_unit_interval_and_distinct(self):
        spreads = [spread_magnitude(0.5, i) for i in range(8)]
        assert all(0.0 <= s < 1.0 for s in spreads)
        assert len(set(spreads)) == len(spreads)

    def test_pure(self):
        assert spread_magnitude(0.37, 3) == spread_magnitude(0.37, 3)


class TestCorrelatedSchedule:
    RATES = {"engine-0": 600.0 / HOUR, "pd0": 240.0 / HOUR}

    def _schedule(self, seed=11, duration=60.0, rates=None):
        return generate_correlated_schedule(
            small_topology(),
            self.RATES if rates is None else rates,
            duration,
            np.random.SeedSequence(seed),
        )

    def test_pure_in_inputs(self):
        assert self._schedule().fingerprint() == self._schedule().fingerprint()

    def test_seed_changes_timeline(self):
        assert (
            self._schedule(seed=11).fingerprint()
            != self._schedule(seed=12).fingerprint()
        )

    def test_int_seed_matches_seed_sequence(self):
        """An int seed draws its SeedSequence's timeline, and another
        int draws another."""

        def fingerprint(seed):
            return generate_correlated_schedule(
                small_topology(), self.RATES, 60.0, seed
            ).fingerprint()

        assert fingerprint(7) == fingerprint(np.random.SeedSequence(7))
        assert fingerprint(7) != fingerprint(8)

    def test_power_strike_expands_to_members(self):
        schedule = self._schedule()
        power = [
            e for e in schedule if e.kind is FaultKind.DOMAIN_POWER_LOSS
        ]
        assert power, "no power strike at 240/hr over a minute"
        for marker in power:
            cohort = [
                e
                for e in schedule
                if e.time_s == marker.time_s
                and e.kind is FaultKind.ENGINE_CRASH
            ]
            # Every member of pd0 crashes at the marker's instant.
            assert {e.device for e in cohort} >= {"engine-0", "engine-1"}

    def test_engine_strike_hits_only_its_member(self):
        rates = {"engine-0": 600.0 / HOUR}
        schedule = self._schedule(rates=rates)
        assert len(schedule) > 0
        assert all(e.kind is FaultKind.ENGINE_CRASH for e in schedule)
        assert all(e.device == "engine-0" for e in schedule)

    def test_zero_rates_empty(self):
        schedule = self._schedule(rates={})
        assert len(schedule) == 0

    def test_seq_and_time_ordered(self):
        schedule = self._schedule()
        seqs = [e.seq for e in schedule]
        assert seqs == list(range(len(schedule)))
        times = [e.time_s for e in schedule]
        assert times == sorted(times)

    def test_magnitudes_differ_across_members(self):
        schedule = self._schedule()
        for marker in (
            e for e in schedule if e.kind is FaultKind.DOMAIN_POWER_LOSS
        ):
            cohort = [
                e
                for e in schedule
                if e.time_s == marker.time_s
                and e.kind is FaultKind.ENGINE_CRASH
            ]
            magnitudes = [e.magnitude for e in cohort]
            assert len(set(magnitudes)) == len(magnitudes)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan")])
    def test_bad_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be > 0"):
            self._schedule(duration=horizon)

    def test_nan_rate_rejected(self):
        with pytest.raises(ValueError, match="non-finite strike rate"):
            self._schedule(rates={"engine-0": float("nan")})
