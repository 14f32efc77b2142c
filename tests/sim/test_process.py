"""Tests for generator-based processes."""

import pytest

from repro.sim import Simulator, Timeout, Wait, WakeAt
from repro.sim.process import Interrupted, SimProcessError


class TestTimeout:
    def test_timeout_advances_time(self, sim):
        log = []

        def proc():
            yield Timeout(2.5)
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [2.5]

    def test_sequential_timeouts_accumulate(self, sim):
        log = []

        def proc():
            yield Timeout(1.0)
            log.append(sim.now)
            yield Timeout(2.0)
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [1.0, 3.0]

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_timeout_value_sent_back(self, sim):
        got = []

        def proc():
            value = yield Timeout(1.0, value="tick")
            got.append(value)

        sim.spawn(proc())
        sim.run()
        assert got == ["tick"]


class TestWakeAt:
    # A boundary computed as a running sum that ``now + (t - now)``
    # misses by one ulp (now = 0.009679724862095583).
    NOW = 0.009679724862095583
    AT = 0.08926023908396839

    def test_wakes_at_exactly_the_given_time(self, sim):
        assert self.NOW + (self.AT - self.NOW) != self.AT
        log = []

        def proc():
            yield Timeout(self.NOW)
            value = yield WakeAt(self.AT, value="tick")
            log.append((sim.now, value))

        sim.spawn(proc())
        sim.run()
        assert log == [(self.AT, "tick")]

    def test_past_time_rejected(self, sim):
        def proc():
            yield Timeout(2.0)
            yield WakeAt(1.0)

        sim.spawn(proc())
        with pytest.raises(ValueError, match="past"):
            sim.run()

    def test_wake_at_supersedes_a_timeout(self, sim):
        log = []

        def proc():
            yield Timeout(10.0)
            log.append(sim.now)

        p = sim.spawn(proc())
        sim.schedule_at(self.NOW, lambda ev: p.wake_at(self.AT))
        sim.run()
        # Woken once, at the new time; the superseded 10.0 wakeup still
        # popped (the clock reached it) but as a no-op.
        assert log == [self.AT]
        assert sim.now == 10.0

    @pytest.mark.parametrize("old, new", [(10.0, 4.0), (1.0, 4.0)])
    def test_wake_at_moves_a_pending_wake_at(self, sim, old, new):
        log = []

        def proc():
            yield WakeAt(old)
            log.append(sim.now)

        p = sim.spawn(proc())
        sim.schedule_at(0.5, lambda ev: p.wake_at(new))
        sim.run()
        # The WakeAt entry left the queue: it never fired, and the clock
        # stops at the new time even when the old one was later.
        assert log == [new]
        assert sim.now == new

    def test_wake_at_past_time_rejected_and_keeps_wakeup(self, sim):
        log = []

        def proc():
            yield Timeout(3.0)
            log.append(sim.now)

        p = sim.spawn(proc())
        errors = []

        def probe(_event):
            try:
                p.wake_at(1.0)
            except ValueError as exc:
                errors.append(str(exc))

        sim.schedule_at(2.0, probe)
        sim.run()
        assert errors and "past" in errors[0]
        assert log == [3.0]


class TestWaitAndJoin:
    def test_wait_on_event(self, sim):
        event = sim.event()
        log = []

        def waiter():
            value = yield Wait(event)
            log.append((sim.now, value))

        sim.spawn(waiter())
        sim.trigger(event, value="go", delay=5.0)
        sim.run()
        assert log == [(5.0, "go")]

    def test_yield_event_directly(self, sim):
        event = sim.event()
        log = []

        def waiter():
            value = yield event
            log.append(value)

        sim.spawn(waiter())
        sim.trigger(event, value=7, delay=1.0)
        sim.run()
        assert log == [7]

    def test_join_child_process(self, sim):
        def child():
            yield Timeout(3.0)
            return "result"

        log = []

        def parent():
            result = yield sim.spawn(child())
            log.append((sim.now, result))

        sim.spawn(parent())
        sim.run()
        assert log == [(3.0, "result")]

    def test_join_already_finished_child(self, sim):
        def child():
            yield Timeout(1.0)
            return 99

        child_proc = sim.spawn(child())
        log = []

        def parent():
            yield Timeout(5.0)  # child finishes long before
            result = yield child_proc
            log.append(result)

        sim.spawn(parent())
        sim.run()
        assert log == [99]

    def test_done_event_value_is_return(self, sim):
        def proc():
            yield Timeout(1.0)
            return {"answer": 42}

        p = sim.spawn(proc())
        sim.run()
        assert p.done.fired
        assert p.done.value == {"answer": 42}
        assert not p.alive


class TestInterrupt:
    def test_interrupt_terminates(self, sim):
        def proc():
            yield Timeout(100.0)

        p = sim.spawn(proc())
        sim.schedule(1.0, lambda ev: p.interrupt())
        sim.run()
        assert not p.alive
        assert isinstance(p.done.value, Interrupted)

    def test_interrupt_can_be_caught(self, sim):
        log = []

        def proc():
            try:
                yield Timeout(100.0)
            except Interrupted:
                log.append("caught")
                yield Timeout(1.0)
                log.append("survived")

        p = sim.spawn(proc())
        sim.schedule(1.0, lambda ev: p.interrupt())
        sim.run()
        assert log == ["caught", "survived"]

    def test_interrupt_dead_process_is_noop(self, sim):
        def proc():
            yield Timeout(1.0)

        p = sim.spawn(proc())
        sim.run()
        p.interrupt()  # must not raise


class TestErrors:
    def test_unsupported_yield_raises(self, sim):
        def proc():
            yield "nonsense"

        sim.spawn(proc())
        with pytest.raises(TypeError, match="unsupported command"):
            sim.run()

    def test_process_exception_surfaces_with_context(self, sim):
        """A raising process must fail the run loudly, carrying the
        process name and sim time — not vanish into the event queue."""

        def bomb():
            yield Timeout(2.5)
            raise KeyError("missing block")

        process = sim.spawn(bomb(), name="bomb")
        with pytest.raises(SimProcessError, match="bomb"):
            sim.run()

    def test_process_exception_metadata(self, sim):
        def bomb():
            yield Timeout(1.25)
            raise ValueError("boom")

        process = sim.spawn(bomb(), name="kaput")
        with pytest.raises(SimProcessError) as excinfo:
            sim.run()
        error = excinfo.value
        assert error.process_name == "kaput"
        assert error.sim_time == 1.25
        assert isinstance(error.original, ValueError)
        assert error.__cause__ is error.original
        assert "t=1.25" in str(error)
        assert "boom" in str(error)
        assert not process.alive

    def test_process_error_is_runtime_error(self, sim):
        """Callers matching on RuntimeError (and on the original
        message) keep working — SimProcessError only adds context."""

        def bomb():
            yield Timeout(1.0)
            raise RuntimeError("cannot ever be admitted")

        sim.spawn(bomb(), name="engine")
        with pytest.raises(RuntimeError, match="cannot ever be admitted"):
            sim.run()
