"""Decode leaps against the one-event-per-iteration loop they replace.

:class:`PerStepEngine` keeps the per-step decode loop as the oracle: one
kernel event, one roofline evaluation and one round of bookkeeping per
decode iteration.  Both engines run the same scenarios through
:class:`~repro.inference.cluster.Cluster` — fractional-parameter models,
split and shared weight/KV tiers, batch caps 1-16, arrivals and mid-run
``summarize()`` probes placed exactly on step boundaries, decode-only
(``prefilled``) submissions, KV losses, engine crashes and a hedging,
timing-out resilience policy — and everything they produce must be
bit-identical: reports, tallies, histogram samples and moments, context
timestamps, the allocator's free list and per-page allocated flags, and
the obs snapshot.  The one exception is a call
between engines at an instant both wake at, which the oracle detects
(:func:`same_instant_calls`) and :class:`TestSameInstantOrder` pins.
"""

from contextlib import contextmanager
from dataclasses import asdict
from typing import Generator, List
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.faults import (
    FaultKind,
    cluster_topology,
    generate_correlated_schedule,
    generate_schedule,
    spawn_domain_faults,
    spawn_kv_faults,
)
from repro.fleet.autoscaler import apply_memory_config
from repro.inference import cluster as cluster_module
from repro.inference.accelerator import H100_80G
from repro.inference.batching import RunningContext
from repro.inference.cluster import Cluster, tensor_parallel_group
from repro.inference.engine import InferenceEngine, _accumulate
from repro.inference.resilience import ResiliencePolicy, ResilientDispatcher
from repro.obs import MetricsRegistry
from repro.sim import Simulator, Timeout
from repro.workload.model import LLAMA2_13B, LLAMA2_70B, ModelConfig
from repro.workload.phases import decode_step_traffic_batch
from repro.workload.requests import InferenceRequest, SLAClass

TP4_H100 = tensor_parallel_group(H100_80G, 4)


#: Set while an arrival or a probe runs.  Both are queued at time zero,
#: so at any instant they run before every engine wakeup.
_ZERO_TIME = [False]


class PerStepEngine(InferenceEngine):
    """The engine with the per-iteration decode loop, kept as the oracle.

    ``boundaries`` records the end time of every decode step, which the
    tests use to place arrivals and probes exactly on boundaries.
    ``wakes`` holds every instant the loop resumed at (step and prefill
    ends).  ``calls`` records, as ``(time, from_zero_time_event)``, each
    outside call and each queue-depth read the dispatchers made on this
    engine while the simulation ran.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.boundaries: List[float] = []
        self.wakes = set()
        self.calls = []

    def touched(self) -> None:
        if self.sim._running:
            self.calls.append((self.sim.now, _ZERO_TIME[0]))

    def submit(self, request, prefilled=False):
        self.touched()
        super().submit(request, prefilled)

    def cancel(self, request_id):
        self.touched()
        return super().cancel(request_id)

    def inject_kv_loss(self, magnitude):
        self.touched()
        return super().inject_kv_loss(magnitude)

    def crash(self, restart_delay_s):
        self.touched()
        return super().crash(restart_delay_s)

    def summarize(self):
        self.touched()
        return super().summarize()

    def _run_prefill(self, request) -> Generator:
        yield from super()._run_prefill(request)
        self.wakes.add(self.sim.now)

    def _run_decode_leap(self, batch: List[RunningContext]) -> Generator:
        lengths = [c.context_tokens for c in batch]
        traffic = decode_step_traffic_batch(self.model, lengths)
        reads = _accumulate(
            (self.placement["weights"], traffic.bytes_read_weights),
            (self.placement["kv"], traffic.bytes_read_kv),
        )
        timing = self.roofline.time_step(
            traffic.flops,
            reads,
            {self.placement["kv"]: traffic.bytes_written_kv},
        )
        self._account_step(traffic, timing)
        yield Timeout(timing.duration_s)
        now = self.sim.now
        self.boundaries.append(now)
        self.wakes.add(now)
        batch = [c for c in batch if c.context_id in self.scheduler.running]
        self.kv.append_batch([c.context_id for c in batch])
        duration = timing.duration_s
        finished: List[RunningContext] = []
        for context in batch:
            context.generated += 1
            if context.first_token_at is None:
                context.first_token_at = now
                wait = now - context.request.arrival_time
                self.ttft.observe(wait)
                self._obs_ttft.observe(wait)
            self.tbt.observe(duration)
            self._obs_tbt.observe(duration)
            if context.done:
                context.finished_at = now
                finished.append(context)
        if batch:
            self.tokens_generated += len(batch)
            self._obs_tokens.add(len(batch))
        if finished:
            self.kv.release([c.context_id for c in finished])
            listener = self.request_listener
            for context in finished:
                self.scheduler.finish(context.context_id)
            self.completed.extend(finished)
            self._obs_completed.add(len(finished))
            if listener is not None:
                for context in finished:
                    listener(context, "completed")


def _hardware(memory: str):
    """(accelerator, placement): both on HBM, weights on MRM with KV on
    HBM, or weights and KV together on MRM."""
    if memory == "hbm":
        return H100_80G, {}
    accelerator, placement = apply_memory_config(H100_80G, "mrm")
    if memory == "mrm-both":
        placement = dict(placement, kv="mrm")
    return accelerator, placement


def _requests(specs, extra_times=()):
    """The scenario's requests, then one extra arrival per time.

    Ids come from the process-wide counter, like the hedge clones the
    dispatcher makes mid-run, so no explicit id can collide with one.
    """
    requests = [
        InferenceRequest(arrival, prompt, output, sla=sla)
        for arrival, prompt, output, sla in specs
    ]
    for j, time in enumerate(extra_times):
        _arrival, prompt, output, sla = specs[j % len(specs)]
        requests.append(
            InferenceRequest(time, prompt, output, sla=sla)
        )
    return requests


def same_instant_calls(cluster) -> int:
    """Calls on an engine, at an instant it also woke at, made by an event
    other than an arrival or a probe.

    Decode leaps reproduce the per-step loop's order against events
    queued at time zero (the tie rule), but not necessarily against
    another engine's wakeup or a timer that lands on the same float
    time as this engine's step boundary (``docs/PERFORMANCE.md``,
    "Same-instant order").  Every leap wakeup is at an instant the
    per-step loop also woke at, so a run of the oracle without such
    calls is one whose results leaps must reproduce bit for bit.
    """
    return sum(
        1
        for engine in cluster.engines
        for time, zero_time in engine.calls
        if not zero_time and time in engine.wakes
    )


@contextmanager
def _decode_only(request_ids):
    """Deliver the arrivals in ``request_ids`` the way a phase-split
    cluster delivers a transferred context: ``prefilled``, straight to
    the JSQ engine.  Scenarios with a dispatcher draw none."""
    deliver = Cluster._deliver

    def _deliver(self, request):
        if request.request_id in request_ids:
            self._least_loaded().submit(request, prefilled=True)
        else:
            deliver(self, request)

    with mock.patch.object(Cluster, "_deliver", _deliver):
        yield


@contextmanager
def _observed_dispatch():
    """Mark arrivals as zero-time events and log every queue-depth read
    as a call on the engine read (per-step runs only)."""
    deliver = Cluster._deliver
    least_loaded = Cluster._least_loaded
    queue_depth = ResilientDispatcher._queue_depth

    def _deliver(self, request):
        _ZERO_TIME[0] = True
        try:
            deliver(self, request)
        finally:
            _ZERO_TIME[0] = False

    def _least_loaded(self):
        for engine in self.engines:
            engine.touched()
        return least_loaded(self)

    def _queue_depth(self, engine):
        engine.touched()
        return queue_depth(self, engine)

    with mock.patch.object(Cluster, "_deliver", _deliver), mock.patch.object(
        Cluster, "_least_loaded", _least_loaded
    ), mock.patch.object(ResilientDispatcher, "_queue_depth", _queue_depth):
        yield


def _probe(probes, cluster):
    _ZERO_TIME[0] = True
    try:
        probes.append([repr(asdict(e.summarize())) for e in cluster.engines])
    finally:
        _ZERO_TIME[0] = False


def _serve(engine_cls, scenario, extra_times=(), probe_times=()):
    """Run one scenario; returns ``(state, pools, cluster)``: ``state``
    is the repr of everything else the run produced (a repr, so NaN
    fields compare equal), ``pools`` each engine's KV page free list and
    per-page allocated flags."""
    accelerator, placement = _hardware(scenario["memory"])
    obs = MetricsRegistry()
    sim = Simulator(obs=obs)
    with mock.patch.object(cluster_module, "InferenceEngine", engine_cls):
        cluster = Cluster(
            sim,
            accelerator,
            scenario["model"],
            num_engines=scenario["engines"],
            placement=placement,
            max_batch_size=scenario["batch"],
            kv_recovery=scenario["recovery"],
            resilience=scenario["resilience"],
            obs=obs,
        )
    log = None
    faults = scenario["faults"]
    if faults == "kv":
        schedule = generate_schedule(
            {FaultKind.KV_LOSS: scenario["fault_rate"]},
            scenario["horizon"],
            scenario["fault_seed"],
            device="cluster",
        )
        _process, log = spawn_kv_faults(sim, cluster.engines, schedule)
    elif faults == "domain":
        topology = cluster_topology(scenario["engines"], engines_per_domain=2)
        rates = {
            domain.name: scenario["fault_rate"] for domain in topology.domains
        }
        schedule = generate_correlated_schedule(
            topology, rates, scenario["horizon"], scenario["fault_seed"]
        )
        _process, log = spawn_domain_faults(sim, cluster, schedule)
    probes = []
    for time in probe_times:
        sim.schedule_at(time, lambda _event: _probe(probes, cluster))
    requests = _requests(scenario["specs"], extra_times)
    # Ids are compared relative to the run's first request: the runs
    # create the same requests and clones in the same order.
    first_id = requests[0].request_id
    flags = scenario.get("prefilled", ())
    prefilled = {
        r.request_id
        for j, r in enumerate(requests)
        if flags and flags[j % len(flags)]
    }
    with _decode_only(prefilled):
        if engine_cls is PerStepEngine:
            with _observed_dispatch():
                cluster.run(requests)
        else:
            cluster.run(requests)

    engines = []
    for engine in cluster.engines:
        histograms = [
            (h.samples().tolist(), h.count, h.total, h.mean())
            for h in (engine.ttft, engine.tbt)
        ]
        contexts = [
            (
                c.context_id - first_id,
                c.request.arrival_time,
                c.prefill_done_at,
                c.first_token_at,
                c.generated,
                c.finished_at,
            )
            for c in engine.completed + engine.failed
        ]
        engines.append(
            (
                asdict(engine.summarize()),
                engine.scheduler.rejected_for_memory,
                engine.scheduler.admitted,
                histograms,
                contexts,
            )
        )
    snapshot = obs.snapshot()
    for section in ("counters", "gauges", "histograms"):
        snapshot[section] = {
            k: v for k, v in snapshot[section].items() if not k.startswith("sim.")
        }
    state = repr(
        (
            asdict(cluster.report()),
            engines,
            probes,
            snapshot,
            log.fingerprint() if log is not None else None,
        )
    )
    pools = [
        (engine.kv.allocator._free, engine.kv.allocator._allocated)
        for engine in cluster.engines
    ]
    return state, pools, cluster


@st.composite
def scenarios(draw):
    # Geometry keeps KV pages >= 1 MiB, so the page pools (and the free
    # lists compared) stay small on one H100.
    n_params = draw(st.integers(1_000_000_000, 25_000_000_000)) + draw(
        st.sampled_from([0.0, 0.3, 0.55])
    )
    model = ModelConfig(
        name="drawn",
        n_params=n_params,
        n_layers=draw(st.integers(16, 80)),
        hidden_dim=4096,
        n_heads=32,
        n_kv_heads=draw(st.sampled_from([8, 32])),
        head_dim=128,
    )
    count = draw(st.integers(1, 14))
    arrival = 0.0
    specs = []
    for _ in range(count):
        arrival += draw(st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.6]))
        specs.append(
            (
                arrival,
                draw(st.integers(1, 400)),
                draw(st.integers(1, 48)),
                draw(st.sampled_from(list(SLAClass))),
            )
        )
    resilience = None
    if draw(st.booleans()):
        resilience = ResiliencePolicy(
            deadline_s=draw(st.sampled_from([0.3, 1.0, 30.0])),
            max_retries=draw(st.integers(0, 2)),
            retry_backoff_s=0.02,
            hedge_delay_s=draw(st.sampled_from([0.0, 0.05, 0.2])),
            max_queue_depth=draw(st.sampled_from([0, 3])),
            restart_delay_s=draw(st.sampled_from([0.1, 0.4])),
        )
    # Decode-only arrivals, one flag per spec (extra arrivals copy their
    # spec's); they bypass a dispatcher, so only undispatched runs draw.
    prefilled = []
    if resilience is None:
        prefilled = draw(
            st.lists(st.booleans(), min_size=count, max_size=count)
        )
    return {
        "model": model,
        "memory": draw(st.sampled_from(["hbm", "mrm", "mrm-both"])),
        "engines": draw(st.integers(1, 3)),
        "batch": draw(st.integers(1, 16)),
        "specs": specs,
        "prefilled": prefilled,
        "recovery": draw(st.booleans()),
        "resilience": resilience,
        "faults": draw(st.sampled_from(["none", "kv", "domain"])),
        "fault_rate": draw(st.sampled_from([0.5, 2.0, 8.0])),
        "fault_seed": draw(st.integers(0, 2**16)),
        "horizon": arrival + 2.0,
        "boundary_picks": draw(
            st.lists(st.integers(0, 10_000), min_size=0, max_size=4)
        ),
        "probe_offsets": draw(
            st.lists(st.floats(0.0, 3.0), min_size=0, max_size=3)
        ),
    }


class TestDecodeLeapsMatchPerStepLoop:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenarios())
    def test_bit_identical_to_per_step_loop(self, scenario):
        # A first run supplies real step boundaries.  Nothing changes
        # before the first extra arrival, so it (and every probe up to
        # it) lands exactly on a step boundary of the compared runs.
        *_, first = _serve(PerStepEngine, scenario)
        boundaries = sorted(t for e in first.engines for t in e.boundaries)
        picks = [
            boundaries[i % len(boundaries)]
            for i in scenario["boundary_picks"]
        ] if boundaries else []
        extra = picks[: len(picks) // 2 + 1] if picks else []
        probes = picks + scenario["probe_offsets"]
        *expected, oracle = _serve(PerStepEngine, scenario, extra, probes)
        assume(same_instant_calls(oracle) == 0)
        *actual, _ = _serve(InferenceEngine, scenario, extra, probes)
        assert actual == expected


def _single_engine_scenario(**overrides):
    scenario = {
        "model": LLAMA2_13B,
        "memory": "mrm",
        "engines": 1,
        "batch": 4,
        "specs": [
            (0.0, 300, 20, SLAClass.INTERACTIVE),
            (0.05, 120, 9, SLAClass.THROUGHPUT),
            (0.07, 40, 31, SLAClass.INTERACTIVE),
        ],
        "recovery": True,
        "resilience": None,
        "faults": "none",
    }
    scenario.update(overrides)
    return scenario


class TestSettleRules:
    def test_call_at_a_boundary_sees_that_step_in_flight(self):
        scenario = _single_engine_scenario(
            memory="hbm", specs=[(0.0, 64, 12, SLAClass.INTERACTIVE)]
        )
        *_, first = _serve(PerStepEngine, scenario)
        boundaries = first.engines[0].boundaries
        seen = []
        sim = Simulator()
        cluster = Cluster(sim, H100_80G, LLAMA2_13B, num_engines=1)
        engine = cluster.engines[0]
        for k, time in enumerate(boundaries[:-1], start=1):
            # Pushed before the run, so it precedes step k's own wakeup.
            sim.schedule_at(
                time,
                lambda _e, k=k: seen.append((k, engine.summarize().tokens_generated)),
            )
        cluster.run(_requests(scenario["specs"]))
        # At the end of step k, steps 1..k-1 have delivered.
        assert seen == [(k, k - 1) for k in range(1, len(boundaries))]

    def test_summarize_mid_run_returns_per_step_tallies(self):
        scenario = _single_engine_scenario()
        *_, first = _serve(PerStepEngine, scenario)
        boundaries = first.engines[0].boundaries
        probes = boundaries[::3] + [b + 1e-4 for b in boundaries[1::5]]
        expected = _serve(PerStepEngine, scenario, probe_times=probes)[:2]
        actual = _serve(InferenceEngine, scenario, probe_times=probes)[:2]
        assert actual == expected

    def test_decode_only_arrival_cuts_a_leap(self):
        # Every request is decode-only; the extra one lands on a step
        # boundary while the first request's leap runs.
        scenario = _single_engine_scenario(prefilled=[True])
        *_, first = _serve(PerStepEngine, scenario)
        time = first.engines[0].boundaries[5]
        *expected, oracle = _serve(PerStepEngine, scenario, [time])
        *actual, _ = _serve(InferenceEngine, scenario, [time])
        [late] = [
            c for c in oracle.engines[0].completed
            if c.request.arrival_time == time
        ]
        # Admitted at the boundary it arrived on, with no prefill step.
        assert late.prefill_done_at == time
        assert actual == expected

    def test_cut_leaves_no_stale_wakeup_behind(self):
        # A KV loss fails the only running request on an otherwise idle
        # engine.  Had the cut left the leap's old wakeup queued, it would
        # pop last and stretch the run's duration past the per-step one.
        scenario = _single_engine_scenario(
            model=ModelConfig(
                name="leap-cut", n_params=12582196982.55, n_layers=53,
                hidden_dim=4096, n_heads=32, n_kv_heads=8, head_dim=128,
            ),
            batch=1,
            recovery=False,
            faults="kv",
            fault_rate=0.5,
            fault_seed=10,
            horizon=2.29,
            specs=[
                (0.01, 276, 28, SLAClass.THROUGHPUT),
                (0.02, 280, 1, SLAClass.BEST_EFFORT),
                (0.03, 253, 28, SLAClass.THROUGHPUT),
                (0.04, 184, 18, SLAClass.INTERACTIVE),
                (0.24, 17, 26, SLAClass.BEST_EFFORT),
                (0.29, 195, 32, SLAClass.BEST_EFFORT),
                (0.29, 141, 25, SLAClass.BEST_EFFORT),
            ],
        )
        *expected, per_step = _serve(PerStepEngine, scenario)
        *actual, _ = _serve(InferenceEngine, scenario)
        assert per_step.engines[0].kv_losses > 0
        assert actual == expected

    def test_crash_mid_leap_matches(self):
        scenario = _single_engine_scenario(
            engines=2, faults="domain", fault_rate=3.0, fault_seed=11,
            horizon=3.0, resilience=ResiliencePolicy(hedge_delay_s=0.05),
        )
        *expected, per_step = _serve(PerStepEngine, scenario)
        *actual, _ = _serve(InferenceEngine, scenario)
        assert sum(e.engine_crashes for e in per_step.engines) > 0
        assert actual == expected


class TestOneFold:
    """Each accounting pass folds every running total in one pass, in the
    per-step loop's order (weights term, then KV term, step by step)."""

    @pytest.mark.parametrize("memory", ["hbm", "mrm", "mrm-both"])
    def test_tallies_match_per_step_loop(self, memory):
        scenario = _single_engine_scenario(memory=memory)
        *_, first = _serve(PerStepEngine, scenario)
        probes = first.engines[0].boundaries[::4]
        expected = _serve(PerStepEngine, scenario, probe_times=probes)[:2]
        actual = _serve(InferenceEngine, scenario, probe_times=probes)[:2]
        assert actual == expected

    def test_engines_share_the_model_lane_table(self):
        cluster = Cluster(Simulator(), TP4_H100, LLAMA2_70B, num_engines=3)
        first, *rest = cluster.engines
        assert all(engine.lanes is first.lanes for engine in rest)


class TestSameInstantOrder:
    """Three engines with weights on MRM take equal-length steps, and an
    arrival placed on a boundary puts two of them in lockstep.  A hedge
    race then makes one engine's completion cancel the other's clone at
    a boundary both share: the per-step loop delivered the clone's step
    first, a leap sees it in flight."""

    SCENARIO = {
        "model": ModelConfig(
            name="lockstep", n_params=6655927407.0, n_layers=16,
            hidden_dim=4096, n_heads=32, n_kv_heads=32, head_dim=128,
        ),
        "memory": "mrm",
        "engines": 3,
        "batch": 1,
        "specs": [
            (0.01, 109, 45, SLAClass.INTERACTIVE),
            (0.21, 373, 34, SLAClass.THROUGHPUT),
            (0.81, 45, 21, SLAClass.INTERACTIVE),
            (0.82, 50, 21, SLAClass.INTERACTIVE),
        ],
        "recovery": False,
        "resilience": ResiliencePolicy(hedge_delay_s=0.05, max_queue_depth=3),
        "faults": "none",
    }

    def _runs(self):
        *_, first = _serve(PerStepEngine, self.SCENARIO)
        boundaries = sorted(t for e in first.engines for t in e.boundaries)
        extra = [boundaries[i % len(boundaries)] for i in (3120, 873, 1886)]
        *expected, oracle = _serve(PerStepEngine, self.SCENARIO, extra)
        *actual, _ = _serve(InferenceEngine, self.SCENARIO, extra)
        return expected, actual, oracle

    def test_detected(self):
        _expected, _actual, oracle = self._runs()
        assert same_instant_calls(oracle) > 0

    @pytest.mark.xfail(
        strict=True,
        reason="same-instant order of lockstep engines "
        "(docs/PERFORMANCE.md, 'Same-instant order')",
    )
    def test_matches_per_step_loop(self):
        expected, actual, _oracle = self._runs()
        assert actual == expected


class TestScalingGuard:
    """Kernel events stop growing with output length: a leap costs one
    wakeup however many iterations it covers."""

    @staticmethod
    def _events(output_tokens: int) -> int:
        obs = MetricsRegistry()
        sim = Simulator(obs=obs)
        cluster = Cluster(
            sim, TP4_H100, LLAMA2_70B, num_engines=2, max_batch_size=8, obs=obs
        )
        cluster.run(
            [
                InferenceRequest(0.05 * i, 512, output_tokens)
                for i in range(40)
            ]
        )
        return int(obs.counter("sim.events_total").value)

    def test_events_flat_in_output_length(self):
        short, long = self._events(64), self._events(1024)
        assert long <= 1.5 * short, (short, long)
