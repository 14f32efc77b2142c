"""Kernel instrumentation: event counters and simulated-time spans."""

from repro.obs import MetricsRegistry, Tracer
from repro.sim import Simulator, Timeout


def ticker(sim, steps, dt):
    for _ in range(steps):
        yield Timeout(dt)


class TestKernelMetrics:
    def test_event_and_spawn_counters(self):
        reg = MetricsRegistry()
        sim = Simulator(obs=reg)
        sim.spawn(ticker(sim, 3, 1.0), name="a")
        sim.spawn(ticker(sim, 2, 1.0), name="b")
        sim.run()
        counters = reg.snapshot()["counters"]
        assert counters["sim.processes_spawned_total"] == 2.0
        assert counters["sim.events_total"] > 0

    def test_disabled_registry_records_nothing(self):
        sim = Simulator()  # no obs: hot path binds no counters
        sim.spawn(ticker(sim, 3, 1.0), name="a")
        sim.run()
        assert sim._obs_events is None
        assert sim._obs_spawns is None


class TestKernelTracing:
    def test_process_spans_use_simulated_time(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        sim.spawn(ticker(sim, 3, 2.0), name="slow")
        sim.spawn(ticker(sim, 1, 1.0), name="quick")
        sim.run()
        spans = {span.name: span for span in tracer.spans}
        slow = spans["process:slow"]
        quick = spans["process:quick"]
        assert slow.start_s == quick.start_s == 0.0
        assert quick.end_s == 1.0
        assert slow.end_s == 6.0

    def test_trace_is_deterministic_across_runs(self):
        def run():
            tracer = Tracer()
            sim = Simulator(tracer=tracer)
            sim.spawn(ticker(sim, 3, 2.0), name="a")
            sim.spawn(ticker(sim, 2, 0.5), name="b")
            sim.run()
            return [
                (s.span_id, s.name, s.start_s, s.end_s) for s in tracer.spans
            ]

        assert run() == run()
