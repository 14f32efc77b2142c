"""The fleet composition root: cells, aggregation, end-to-end runs."""

from dataclasses import replace

import pytest

from repro.fleet import (
    DEFAULT_TENANTS,
    FleetConfig,
    TenantConfig,
    build_cells,
    fleet_cell_point,
    run_fleet,
)
from repro.inference import UnsupportedScenario
from repro.obs import merge_snapshots, relabel_snapshot

TINY = dict(horizon_s=120.0, epoch_s=60.0, num_clusters=4)


class TestFleetConfig:
    def test_defaults_valid(self):
        config = FleetConfig()
        assert config.epochs() == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="cluster"):
            FleetConfig(num_clusters=0)
        with pytest.raises(ValueError, match="horizon"):
            FleetConfig(horizon_s=0.0)
        with pytest.raises(ValueError, match="epoch"):
            FleetConfig(epoch_s=0.0)
        with pytest.raises(ValueError, match="epoch"):
            FleetConfig(horizon_s=100.0, epoch_s=200.0)
        with pytest.raises(ValueError, match="routing"):
            FleetConfig(routing="random")
        with pytest.raises(ValueError, match="scaling"):
            FleetConfig(scaling="predictive")
        with pytest.raises(ValueError, match="serve mode"):
            FleetConfig(mode="exact")
        with pytest.raises(ValueError, match="rate scale"):
            FleetConfig(rate_scale=0.0)

    def test_rate_scale_scales_tenants(self):
        config = FleetConfig(rate_scale=2.0)
        scaled = config.scaled_tenants()
        for before, after in zip(config.tenants, scaled):
            assert after.rate_per_s == pytest.approx(2 * before.rate_per_s)

    def test_rate_scale_one_is_identity(self):
        config = FleetConfig()
        assert config.scaled_tenants() is config.tenants


class TestBuildCells:
    def test_cells_cover_all_routed_arrivals(self):
        config = FleetConfig(**TINY)
        points, context = build_cells(config, root_seed=3)
        routed = sum(
            1 for decision in context["decisions"] if not decision.shed
        )
        assert sum(len(point["records"]) for point in points) == routed

    def test_cell_arrivals_are_epoch_relative(self):
        config = FleetConfig(**TINY)
        points, _context = build_cells(config, root_seed=3)
        for point in points:
            for arrival, _p, _o, _sla in point["records"]:
                assert 0.0 <= arrival
        # At least one late-epoch cell exists and starts near zero.
        late = [p for p in points if p["epoch"] > 0]
        assert late

    def test_deterministic_in_seed(self):
        config = FleetConfig(**TINY)
        a, _ = build_cells(config, root_seed=3)
        b, _ = build_cells(config, root_seed=3)
        assert a == b


class TestFleetCellPoint:
    def _point(self, **overrides):
        fields = dict(
            tenant="t", cluster=0, epoch=0,
            model="llama2-13b", accelerator="h100-80g", tp=2, batch=16,
            memory="hbm", replicas=2, mode="auto",
            records=(
                (0.5, 100, 10, "interactive"),
                (1.0, 200, 20, "throughput"),
            ),
        )
        fields.update(overrides)
        return fields

    def test_cell_runs_and_labels(self):
        row = fleet_cell_point(self._point(), seed=None)
        assert row["tenant"] == "t"
        assert row["cluster"] == 0
        assert row["admitted"] == 2
        assert row["requests_completed"] == 2
        assert row["sla_admitted"] == {"interactive": 1, "throughput": 1}
        assert row["mode"] in ("analytic", "des")

    def test_des_and_auto_agree_on_counts(self):
        des = fleet_cell_point(self._point(mode="des"), seed=None)
        auto = fleet_cell_point(self._point(mode="auto"), seed=None)
        assert des["mode"] == "des"
        assert des["requests_completed"] == auto["requests_completed"]
        assert des["tokens_generated"] == auto["tokens_generated"]

    def test_mrm_memory_config_runs(self):
        row = fleet_cell_point(
            self._point(model="llama2-70b", memory="mrm"), seed=None
        )
        assert row["requests_completed"] == 2

    def test_zero_replica_cell_rejected(self):
        with pytest.raises(ValueError, match="replica"):
            fleet_cell_point(self._point(replicas=0), seed=None)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="serve mode"):
            fleet_cell_point(self._point(mode="exact"), seed=None)

    def test_auto_falls_back_to_the_des_on_overload(self):
        # 40 req/s on one replica is past the analytic stability guard.
        # The fallback DES must see all 200 requests, not the generator
        # the declined analytic attempt already drained.
        overloaded = dict(
            replicas=1,
            records=tuple(
                (0.025 * i, 512, 128, "interactive") for i in range(200)
            ),
        )
        auto = fleet_cell_point(
            self._point(mode="auto", **overloaded), seed=None
        )
        des = fleet_cell_point(
            self._point(mode="des", **overloaded), seed=None
        )
        assert auto["mode"] == "des"
        assert auto["analytic_fallback"] is True
        assert dict(auto, analytic_fallback=False) == des
        with pytest.raises(UnsupportedScenario):
            fleet_cell_point(
                self._point(mode="analytic", **overloaded), seed=None
            )


class TestRunFleet:
    def test_conservation_and_tables(self):
        config = FleetConfig(**TINY)
        result = run_fleet(config, root_seed=7)
        totals = result["totals"]
        assert totals["admitted"] == totals["routed"] + totals["shed"]
        assert (
            totals["routed"]
            == totals["requests_completed"] + totals["requests_failed"]
        )
        for name, entry in result["tenants"].items():
            assert entry["in_flight"] == 0, name
        assert set(result["clusters"]) == {"0", "1", "2", "3"}

    def test_obs_snapshot_labels_every_tenant(self):
        config = FleetConfig(**TINY)
        result = run_fleet(config, root_seed=7)
        counters = result["obs"]["counters"]
        for tenant in ("chat", "code", "batch"):
            assert f"fleet_requests_admitted{{tenant={tenant}}}" in counters
            assert f"fleet_requests_completed{{tenant={tenant}}}" in counters

    def test_des_mode_matches_auto_counts(self):
        config = FleetConfig(
            tenants=DEFAULT_TENANTS[:1], horizon_s=60.0, epoch_s=30.0,
            num_clusters=2, mode="des",
        )
        des = run_fleet(config, root_seed=1)
        auto = run_fleet(replace(config, mode="auto"), root_seed=1)
        assert (
            des["totals"]["requests_completed"]
            == auto["totals"]["requests_completed"]
        )
        assert des["totals"]["cells_des"] == des["totals"]["num_cells"]


class TestZeroTrafficTenant:
    """The empty-tenant regression: a zero-arrival tenant in a
    three-tenant fleet must aggregate, merge and relabel cleanly."""

    @pytest.fixture()
    def result(self):
        idle = TenantConfig(name="idle", rate_per_s=0.0, min_replicas=0)
        tenants = DEFAULT_TENANTS[:2] + (idle,)
        config = FleetConfig(tenants=tenants, **TINY)
        return run_fleet(config, root_seed=5)

    def test_idle_tenant_has_zeroed_table(self, result):
        entry = result["tenants"]["idle"]
        assert entry["admitted"] == 0
        assert entry["routed"] == 0
        assert entry["shed_total"] == 0
        assert entry["requests_completed"] == 0
        assert entry["users_per_day"] == 0.0
        assert entry["sla_attainment"] == {}
        assert entry["ttft_p99_worst_cell_s"] == 0.0
        assert entry["mrm_endurance_burn_per_day"] == 0.0

    def test_idle_tenant_metrics_exist_at_zero(self, result):
        counters = result["obs"]["counters"]
        assert counters["fleet_requests_admitted{tenant=idle}"] == 0
        assert counters["fleet_requests_completed{tenant=idle}"] == 0
        gauges = result["obs"]["gauges"]
        assert gauges["fleet_users_per_day{tenant=idle}"] == 0.0

    def test_snapshot_merges_and_relabels_cleanly(self, result):
        snapshot = result["obs"]
        merged = merge_snapshots(
            [
                relabel_snapshot(snapshot, arm="a"),
                relabel_snapshot(snapshot, arm="b"),
            ]
        )
        assert (
            merged["counters"]["fleet_requests_admitted{arm=a,tenant=idle}"]
            == 0
        )

    def test_active_tenants_unaffected(self, result):
        for name in ("chat", "code"):
            entry = result["tenants"][name]
            assert entry["admitted"] > 0
            assert entry["requests_completed"] == entry["routed"]
