"""Tests for the analytic (fluid-replay) serving evaluator.

Covers three layers of the analytic-mode contract:

- **Guards**: scenarios the fluid replay cannot express raise
  :class:`UnsupportedScenario` (prefix sharing, overload, KV pools too
  small) instead of returning silently wrong numbers.
- **Exactness**: interleaving-independent quantities (request/token
  counts, KV byte traffic) match the DES bit-for-bit.
- **Cross-validation**: on the pinned tiny grid every metric in
  :data:`CROSS_VAL_METRICS` agrees with the DES within
  :data:`CROSS_VAL_TOLERANCE`, and sweeps are worker-count invariant in
  both modes.

The heap-based JSQ replay is also checked against the quadratic scan it
replaced, which stays here as the reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.autoscaler import apply_memory_config
from repro.inference import (
    CROSS_VAL_METRICS,
    CROSS_VAL_TOLERANCE,
    Cluster,
    UnsupportedScenario,
    analytic_cluster_report,
    cross_validate,
    cross_validation_grid,
    run_serve_sweep,
)
from repro.inference.accelerator import A100_80G, H100_80G
from repro.inference.analytic import _jsq_replay, _quantile
from repro.inference.cluster import tensor_parallel_group
from repro.sim import Simulator
from repro.workload.model import LLAMA2_13B, LLAMA2_70B
from repro.workload.requests import InferenceRequest, PoissonArrivals
from repro.workload.traces import generate_trace, replay_trace


def _tiny_requests():
    return [
        InferenceRequest(arrival_time=0.0, prompt_tokens=128, output_tokens=16),
        InferenceRequest(arrival_time=0.5, prompt_tokens=256, output_tokens=8),
        InferenceRequest(arrival_time=2.0, prompt_tokens=64, output_tokens=32),
    ]


class TestGuards:
    def test_prefix_sharing_unsupported(self):
        with pytest.raises(UnsupportedScenario, match="prefix sharing"):
            analytic_cluster_report(
                tensor_parallel_group(H100_80G, 4),
                LLAMA2_70B,
                _tiny_requests(),
                enable_prefix_sharing=True,
            )

    def test_overload_unsupported(self):
        # 400 large requests in 0.4 simulated seconds on one engine is
        # far outside any stability envelope.
        requests = [
            InferenceRequest(
                arrival_time=i * 0.001, prompt_tokens=2048, output_tokens=256
            )
            for i in range(400)
        ]
        with pytest.raises(UnsupportedScenario, match="stability"):
            analytic_cluster_report(
                tensor_parallel_group(A100_80G, 2),
                LLAMA2_70B,
                requests,
                num_engines=1,
            )

    def test_oversized_prompt_unsupported(self):
        huge = [
            InferenceRequest(
                arrival_time=0.0, prompt_tokens=2_000_000, output_tokens=1
            )
        ]
        with pytest.raises(UnsupportedScenario):
            analytic_cluster_report(
                tensor_parallel_group(H100_80G, 4), LLAMA2_70B, huge
            )

    def test_misspelt_placement_structure_rejected(self):
        # The accelerator has an "mrm" tier, so only the structure name
        # is wrong; it must not be kept and silently ignored.
        acc, _placement = apply_memory_config(
            tensor_parallel_group(H100_80G, 4), "mrm"
        )
        with pytest.raises(ValueError, match="weights, kv, activations"):
            analytic_cluster_report(
                acc, LLAMA2_70B, _tiny_requests(),
                placement={"weigths": "mrm"},
            )

    def test_unsupported_is_a_value_error(self):
        # The CLI's one-line ``error:``/exit-2 handling catches
        # ValueError; the guard class must stay a subclass.
        assert issubclass(UnsupportedScenario, ValueError)

    def test_empty_trace(self):
        report = analytic_cluster_report(
            tensor_parallel_group(H100_80G, 4), LLAMA2_70B, [], num_engines=3
        )
        assert report.engines == 3
        assert report.requests_completed == 0
        assert report.tokens_generated == 0
        assert report.duration_s == 0.0


class TestExactness:
    """Interleaving-independent aggregates match the DES exactly."""

    @pytest.fixture(scope="class")
    def pair(self):
        accelerator = tensor_parallel_group(H100_80G, 4)
        trace = generate_trace(
            LLAMA2_70B,
            arrivals=PoissonArrivals(0.5),
            duration_s=15.0,
            seed=7,
        )
        sim = Simulator()
        cluster = Cluster(
            sim, accelerator, LLAMA2_70B, num_engines=2, max_batch_size=16
        )
        des = cluster.run(replay_trace(trace))
        analytic = analytic_cluster_report(
            accelerator,
            LLAMA2_70B,
            replay_trace(trace),
            num_engines=2,
            max_batch_size=16,
        )
        return des, analytic

    def test_counts_exact(self, pair):
        des, analytic = pair
        assert analytic.requests_completed == des.requests_completed
        assert analytic.tokens_generated == des.tokens_generated
        assert analytic.requests_failed == des.requests_failed == 0

    def test_kv_traffic_exact(self, pair):
        des, analytic = pair
        # KV writes are one per (token, iteration) regardless of how
        # iterations interleave — exact to the byte.  Reads include the
        # weight stream, whose amortization is realized-batch dependent,
        # so writes are the bitwise channel.
        assert analytic.tier_bytes_written == des.tier_bytes_written
        for tier, des_read in des.tier_bytes_read.items():
            assert analytic.tier_bytes_read[tier] == pytest.approx(
                des_read, rel=CROSS_VAL_TOLERANCE
            )

    def test_sla_classes_covered(self, pair):
        des, analytic = pair
        assert set(analytic.sla_attainment) == set(des.sla_attainment)


def _jsq_scan(arrival, departure_est, num_engines):
    """Reference JSQ replay: at each arrival (stable time order) count
    every engine's residents with ``finish > now``; the lowest index
    wins a tie.  O(n²) — the oracle for :func:`_jsq_replay`."""
    engine_of = np.zeros(arrival.size, dtype=np.int64)
    resident = [[] for _ in range(num_engines)]
    for i in np.argsort(arrival, kind="stable"):
        now = arrival[i]
        best, best_load = 0, None
        for e in range(num_engines):
            load = sum(1 for fin in resident[e] if fin > now)
            if best_load is None or load < best_load:
                best, best_load = e, load
        engine_of[i] = best
        resident[best].append(float(departure_est[i]))
    return engine_of


class TestJSQReplay:
    def test_matches_quadratic_scan(self):
        # Arrivals and residences on a coarse half-second grid, so times
        # repeat, departures land exactly on later arrivals (resident
        # only while finish > now) and loads tie (lowest index wins).
        exact_departures = 0
        for seed in range(120):
            rng = np.random.default_rng(seed)
            num_engines = int(rng.integers(1, 19))
            count = int(rng.integers(1, 200))
            arrival = 0.5 * rng.integers(0, 80, size=count)
            departure = arrival + 0.5 * rng.integers(0, 24, size=count)
            exact_departures += int(np.isin(departure, arrival).sum())
            expected = _jsq_scan(arrival, departure, num_engines)
            actual = _jsq_replay(arrival, departure, num_engines)
            assert actual.tolist() == expected.tolist(), seed
        assert exact_departures > 1000

    def test_departure_at_arrival_frees_the_engine(self):
        # Engine 0's request finishes exactly when the third arrives, so
        # engine 0 is empty again and wins the tie with engine 2.
        arrival = np.array([0.0, 0.0, 1.0])
        departure = np.array([1.0, 5.0, 5.0])
        assert _jsq_replay(arrival, departure, 3).tolist() == [0, 1, 0]


class TestQuantile:
    """``_quantile`` is ``np.quantile``'s linear method without its
    per-call overhead: the same float for every input."""

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(0.0, 1e6),
                st.sampled_from([0.0, 1.0, 2.5, math.inf, math.nan]),
            ),
            min_size=1,
            max_size=40,
        ),
        q=st.one_of(st.sampled_from([0.0, 0.5, 0.99, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_equals_np_quantile(self, values, q):
        values = np.array(values)
        with np.errstate(invalid="ignore"):
            expected = float(np.quantile(values, q))
        actual = _quantile(values, q)
        assert actual == expected or (math.isnan(actual) and math.isnan(expected))

    def test_empty_is_nan(self):
        assert math.isnan(_quantile(np.array([]), 0.5))


class TestCrossValidation:
    def test_tiny_grid_within_tolerance(self):
        rows = cross_validate(cross_validation_grid(tiny=True), root_seed=0)
        assert len(rows) == 2
        for row in rows:
            assert set(row["metrics"]) == set(CROSS_VAL_METRICS)
            assert row["max_rel_err"] <= CROSS_VAL_TOLERANCE, row

    def test_modes_share_the_trace(self):
        # Same root seed => same request stream in both modes: exact
        # count metrics agree bit-for-bit, not just within tolerance.
        points = cross_validation_grid(tiny=True)[:1]
        rows = cross_validate(points, root_seed=3)
        for name in ("requests_completed", "tokens_generated"):
            entry = rows[0]["metrics"][name]
            assert entry["des"] == entry["analytic"]
            assert entry["rel_err"] == 0.0


class TestSweepDeterminism:
    @pytest.mark.parametrize("mode", ["des", "analytic"])
    def test_serial_matches_parallel(self, mode):
        points = cross_validation_grid(tiny=True)
        serial = run_serve_sweep(points, root_seed=11, workers=1, mode=mode)
        parallel = run_serve_sweep(points, root_seed=11, workers=4, mode=mode)
        assert serial == parallel

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown serve mode"):
            run_serve_sweep([{}], mode="quantum")


class TestAnalyticSpeed:
    def test_faster_than_des_on_one_point(self):
        # Smoke-level sanity (the real floor lives in benchmarks/perf):
        # the analytic evaluator must beat the DES by a wide margin on
        # the same pre-built trace.
        import time

        accelerator = tensor_parallel_group(H100_80G, 4)
        trace = generate_trace(
            LLAMA2_70B,
            arrivals=PoissonArrivals(1.0),
            duration_s=20.0,
            seed=1,
        )
        requests = list(replay_trace(trace))

        start = time.perf_counter()
        sim = Simulator()
        Cluster(sim, accelerator, LLAMA2_70B, num_engines=2).run(
            list(requests)
        )
        des_s = time.perf_counter() - start

        analytic_cluster_report(  # warm the numpy path
            accelerator, LLAMA2_70B, list(requests), num_engines=2
        )
        start = time.perf_counter()
        analytic_cluster_report(
            accelerator, LLAMA2_70B, list(requests), num_engines=2
        )
        analytic_s = time.perf_counter() - start
        assert analytic_s < des_s / 5  # loose CI-safe bound
