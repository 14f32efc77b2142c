"""Tests for the simulator event loop."""

import pytest

from repro.sim import Simulator, Timeout


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=10.0).now == 10.0

    def test_schedule_advances_clock(self):
        sim = Simulator()
        sim.schedule(5.0)
        sim.run()
        assert sim.now == 5.0

    def test_callback_sees_scheduled_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.0, lambda ev: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_schedule_at_absolute(self):
        sim = Simulator()
        sim.schedule_at(8.0)
        sim.run()
        assert sim.now == 8.0

    def test_schedule_at_fires_at_exactly_the_time(self):
        # now + (time - now) lands one ulp past this time.
        now, time = 0.009679724862095583, 0.08926023908396839
        sim = Simulator(start_time=now)
        seen = []
        sim.schedule_at(time, lambda ev: seen.append(sim.now))
        sim.run()
        assert seen == [time]

    def test_schedule_at_past_rejected(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(4.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="past"):
            Simulator().schedule(-1.0)

    def test_event_value_passed(self):
        sim = Simulator()
        got = []
        sim.schedule(1.0, lambda ev: got.append(ev.value), value=42)
        sim.run()
        assert got == [42]

    def test_same_time_runs_in_schedule_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda ev, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestRunControl:
    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        sim.schedule(10.0)
        sim.run(until=4.0)
        assert sim.now == 4.0
        assert sim.pending_events() == 1

    def test_run_until_processes_earlier_events(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, lambda ev: hits.append(1))
        sim.schedule(9.0, lambda ev: hits.append(9))
        sim.run(until=5.0)
        assert hits == [1]

    def test_run_until_beyond_queue_advances_clock(self):
        sim = Simulator()
        sim.schedule(1.0)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda ev: sim.run())
        with pytest.raises(RuntimeError, match="re-entrant"):
            sim.run()

    def test_manual_trigger(self):
        sim = Simulator()
        event = sim.event("manual")
        got = []
        event.add_callback(lambda ev: got.append(ev.value))
        sim.trigger(event, value="hello", delay=2.0)
        sim.run()
        assert got == ["hello"]
        assert sim.now == 2.0


class TestDeterminism:
    def test_two_identical_runs_identical_traces(self):
        def build():
            sim = Simulator()
            trace = []

            def proc(name, delay):
                yield Timeout(delay)
                trace.append((sim.now, name))
                yield Timeout(delay)
                trace.append((sim.now, name))

            for i in range(10):
                sim.spawn(proc(f"p{i}", 0.1 * (i + 1)))
            sim.run()
            return trace

        assert build() == build()
