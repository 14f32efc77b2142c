"""Cohort-order bit-identity: results must not depend on the order in
which same-timestamp events run.

The kernel pops every same-timestamp cohort in push (FIFO) order — the
tie-break contract ``tests/sim`` pins.  That order is an accident of
registration history, so no result may depend on it.
:class:`TestShuffledCohorts` tests the property directly: it shuffles
every multi-member cohort the kernel pops and asserts a chaos sweep
stays bit-identical.  The other classes permute the insertion orders
the code makes explicit order-independence claims about:

- :func:`repro.faults.injector.spawn_kv_faults` addresses engines in
  *sorted-name* order, so the timeline-to-victim mapping never depends
  on construction order;
- independent spawners keep *per-spawner* :class:`FaultLog` instances,
  so their registration order cannot reorder anyone's log;
- :meth:`Cluster.handle_engine_crash` touches per-engine disjoint
  state, so same-instant crash registrations commute;
- :func:`repro.fleet.arrivals.merge_arrivals` totally orders ties by
  tenant *declaration* order, never by dict insertion history.
"""

import itertools
import json
import random

import numpy as np
import pytest

from repro.faults import (
    FaultKind,
    cluster_topology,
    generate_correlated_schedule,
    generate_schedule,
    spawn_domain_faults,
    spawn_kv_faults,
)
from repro.faults.experiment import run_chaos_experiment
from repro.fleet.arrivals import generate_fleet_traces, merge_arrivals
from repro.fleet.tenant import DEFAULT_TENANTS
from repro.inference.accelerator import H100_80G
from repro.inference.cluster import Cluster, tensor_parallel_group
from repro.inference.engine import KVRecoveryConfig
from repro.inference.resilience import ResiliencePolicy
from repro.sim import Simulator
from repro.sim.events import EventQueue
from repro.workload.model import LLAMA2_13B
from repro.workload.requests import InferenceRequest


def canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=str)


def make_cluster(sim, num_engines=3, resilience=None):
    return Cluster(
        sim,
        tensor_parallel_group(H100_80G, 2),
        LLAMA2_13B,
        num_engines=num_engines,
        max_batch_size=4,
        kv_recovery=KVRecoveryConfig(enabled=True),
        resilience=resilience,
    )


def kv_schedule():
    return generate_schedule(
        {FaultKind.KV_LOSS: 1800.0 / 3600.0},
        8.0,
        np.random.SeedSequence(7),
        device="cluster",
    )


def domain_schedule():
    topology = cluster_topology(3)
    rates = {"pd0": 0.05, "engine-1": 0.08}
    return generate_correlated_schedule(
        topology, rates, 8.0, np.random.SeedSequence(11)
    )


def report_canon(report, extra=()):
    keys = (
        "availability",
        "requests_completed",
        "requests_failed",
        "kv_recoveries",
        "kv_recompute_tokens",
    ) + tuple(extra)
    return canon({key: getattr(report, key) for key in keys})


def chaos_run():
    return canon(run_chaos_experiment(tiny=True, root_seed=0, workers=1))


class TestShuffledCohorts:
    """Every multi-member cohort popped in a random order, three ways."""

    @pytest.fixture(scope="class")
    def fifo_run(self):
        return chaos_run()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chaos_sweep_ignores_cohort_order(self, seed, fifo_run, monkeypatch):
        rng = random.Random(seed)
        fifo_pop = EventQueue.pop_cohort
        shuffled = []

        def shuffled_pop(self, until=None):
            cohort = fifo_pop(self, until)
            if cohort is not None and len(cohort[1]) > 1:
                rng.shuffle(cohort[1])
                shuffled.append(len(cohort[1]))
            return cohort

        monkeypatch.setattr(EventQueue, "pop_cohort", shuffled_pop)
        assert chaos_run() == fifo_run
        # Non-vacuous: the sweep really dispatches co-timed events.
        assert len(shuffled) >= 100


class TestKVFaultEnginePermutation:
    """Sorted-name victim addressing."""

    def _run(self, perm):
        sim = Simulator()
        cluster = make_cluster(sim)
        engines = [cluster.engines[i] for i in perm]
        _process, log = spawn_kv_faults(sim, engines, kv_schedule())
        requests = [InferenceRequest(0.25 * i, 256, 32) for i in range(12)]
        report = cluster.run(requests)
        return log, report_canon(report)

    def test_every_engine_list_order_gives_identical_run(self):
        """``spawn_kv_faults`` promises the timeline-to-victim mapping
        "never depends on construction order"; all 6 orders of the
        engine list must produce one fingerprint and one report."""
        results = {
            (log.fingerprint(), report)
            for log, report in (
                self._run(list(perm))
                for perm in itertools.permutations(range(3))
            )
        }
        assert len(results) == 1

    def test_faults_actually_landed(self):
        """Guard against vacuous invariance: the scenario must really
        deliver events, or the permutation proves nothing."""
        log, _report = self._run([0, 1, 2])
        assert len(kv_schedule()) > 0
        assert len(log.entries) == len(kv_schedule())


class TestSpawnerRegistrationOrder:
    """Per-spawner FaultLogs are disjoint state.

    The kv-fault process, the domain-fault process and the arrival
    stream are logically independent registrations; any relative order
    must yield the same logs and the same serving report.
    """

    def _run(self, order):
        sim = Simulator()
        cluster = make_cluster(sim, resilience=ResiliencePolicy())
        requests = [InferenceRequest(0.2 * i, 128, 16) for i in range(12)]
        logs = {}

        def register_kv():
            _p, logs["kv"] = spawn_kv_faults(
                sim, cluster.engines, kv_schedule()
            )

        def register_domain():
            _p, logs["domain"] = spawn_domain_faults(
                sim, cluster, domain_schedule()
            )

        def register_requests():
            cluster.submit_stream(requests)

        actions = {
            "kv": register_kv,
            "domain": register_domain,
            "requests": register_requests,
        }
        for key in order:
            actions[key]()
        sim.run()
        for engine in cluster.engines:
            engine.drain()
        sim.run()
        report = cluster.report()
        return canon(
            {
                "kv_log": logs["kv"].fingerprint(),
                "domain_log": logs["domain"].fingerprint(),
                "report": report_canon(
                    report, extra=("engine_crashes", "retries")
                ),
            }
        )

    def test_all_six_registration_orders_identical(self):
        results = {
            self._run(order)
            for order in itertools.permutations(
                ["kv", "domain", "requests"]
            )
        }
        assert len(results) == 1

    def test_domain_faults_actually_struck(self):
        assert len(domain_schedule()) > 0


class TestResilienceCrashCohort:
    """``handle_engine_crash`` state is per-engine disjoint, so
    same-instant crashes commute."""

    def _run(self, crash_order):
        sim = Simulator()
        cluster = make_cluster(sim, resilience=ResiliencePolicy())
        for name in crash_order:
            sim.schedule_at(
                0.3,
                lambda _ev, n=name: cluster.handle_engine_crash(n),
                name=f"crash-{name}",
            )
        requests = [InferenceRequest(0.1 * i, 128, 16) for i in range(10)]
        report = cluster.run(requests)
        return report_canon(
            report,
            extra=("retries", "engine_crashes", "engine_restarts"),
        )

    def test_same_instant_crash_registration_order_is_irrelevant(self):
        """Two crash callbacks land in one timestamp cohort; the FIFO
        tie-break runs them in registration order, and the report must
        not notice which came first."""
        forward = self._run(["engine-0", "engine-1"])
        reverse = self._run(["engine-1", "engine-0"])
        assert forward == reverse
        assert '"engine_crashes": 2' in forward


class TestFleetArrivalMergeInsertionOrder:
    """``merge_arrivals`` ties break by tenant *declaration* order —
    dict insertion history must be invisible."""

    def test_every_traces_insertion_order_merges_identically(self):
        tenants = DEFAULT_TENANTS
        traces = generate_fleet_traces(
            tenants, 30.0, np.random.SeedSequence(3)
        )
        declaration = [tenant.name for tenant in tenants]
        baseline = merge_arrivals(traces, declaration)
        assert baseline  # non-vacuous: the window contains arrivals
        for perm in itertools.permutations(traces):
            shuffled = {name: traces[name] for name in perm}
            assert merge_arrivals(shuffled, declaration) == baseline

    def test_tie_break_is_declaration_order_not_name_order(self):
        """Same-instant arrivals from different tenants order by the
        declaration rank passed in, so reversing the declaration list
        reverses (only) the tie order."""
        traces = {
            "zeta": [type("R", (), {"arrival_time": 1.0})()],
            "alpha": [type("R", (), {"arrival_time": 1.0})()],
        }
        forward = merge_arrivals(traces, ["zeta", "alpha"])
        reverse = merge_arrivals(traces, ["alpha", "zeta"])
        assert [item[1] for item in forward] == ["zeta", "alpha"]
        assert [item[1] for item in reverse] == ["alpha", "zeta"]
