"""Tests for the event queue and event objects."""

import pytest

from repro.sim.events import Event, EventQueue


class TestEvent:
    def test_starts_pending(self):
        event = Event("x")
        assert not event.fired
        assert not event.scheduled
        assert event.name == "x"

    def test_anonymous_name(self):
        assert "event@" in Event().name

    def test_fire_runs_callbacks_in_order(self):
        event = Event()
        order = []
        event.add_callback(lambda e: order.append(1))
        event.add_callback(lambda e: order.append(2))
        event._fire()
        assert order == [1, 2]

    def test_fire_twice_raises(self):
        event = Event()
        event._fire()
        with pytest.raises(RuntimeError, match="twice"):
            event._fire()

    def test_callback_after_fire_runs_immediately(self):
        event = Event()
        event._fire()
        ran = []
        event.add_callback(lambda e: ran.append(True))
        assert ran == [True]

    def test_callback_receives_event_with_value(self):
        event = Event()
        event.value = "payload"
        got = []
        event.add_callback(lambda e: got.append(e.value))
        event._fire()
        assert got == ["payload"]


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        a, b = Event("a"), Event("b")
        queue.push(5.0, b)
        queue.push(1.0, a)
        assert queue.pop()[1] is a
        assert queue.pop()[1] is b

    def test_fifo_within_same_time(self):
        queue = EventQueue()
        events = [Event(str(i)) for i in range(10)]
        for event in events:
            queue.push(3.0, event)
        popped = [queue.pop()[1] for _ in range(10)]
        assert popped == events

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        assert len(queue) == 0
        queue.push(0.0, Event())
        assert queue
        assert len(queue) == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(7.0, Event())
        assert queue.peek_time() == 7.0

    def test_double_schedule_rejected(self):
        queue = EventQueue()
        event = Event()
        queue.push(1.0, event)
        with pytest.raises(RuntimeError, match="twice"):
            queue.push(2.0, event)

    def test_nan_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError, match="NaN"):
            queue.push(float("nan"), Event())


class TestTieBreakContract:
    """The documented guarantee the parallel sweep engine leans on:
    equal-time events fire in scheduling order — always, at any scale,
    and regardless of what is interleaved between the ties.  (See the
    EventQueue docstring; repro.parallel assumes a simulation's result
    is a pure function of its schedule order.)"""

    def test_thousands_of_same_timestamp_events_fifo(self):
        queue = EventQueue()
        events = [Event(str(i)) for i in range(5000)]
        for event in events:
            queue.push(1.0, event)
        popped = [queue.pop()[1] for _ in range(len(events))]
        assert popped == events

    def test_ties_fifo_under_interleaved_times(self):
        """Property-style sweep: push a deterministic pseudo-random mix
        of timestamps (many duplicated) and check that, within every
        timestamp, pop order equals push order."""
        import numpy as np

        rng = np.random.default_rng(1234)
        times = rng.integers(0, 8, size=4000).astype(float)
        queue = EventQueue()
        pushed_per_time = {}
        for index, time in enumerate(times):
            event = Event(f"e{index}")
            queue.push(float(time), event)
            pushed_per_time.setdefault(float(time), []).append(event)
        popped_per_time = {}
        last_time = float("-inf")
        while queue:
            time, event = queue.pop()
            assert time >= last_time
            last_time = time
            popped_per_time.setdefault(time, []).append(event)
        assert popped_per_time == pushed_per_time

    def test_ties_fifo_when_pushed_between_pops(self):
        """Later pushes at an already-pending timestamp still order
        after earlier ones (the sequence number is global, not
        per-timestamp)."""
        queue = EventQueue()
        first, second, third = Event("1"), Event("2"), Event("3")
        queue.push(2.0, first)
        queue.push(1.0, Event("opener"))
        queue.pop()
        queue.push(2.0, second)
        queue.push(2.0, third)
        assert [queue.pop()[1] for _ in range(3)] == [first, second, third]

    def test_kernel_runs_equal_time_callbacks_in_schedule_order(self):
        from repro.sim.kernel import Simulator

        sim = Simulator()
        fired = []
        # Schedule in a shuffled-looking order of delays but all equal.
        for index in range(2000):
            sim.schedule(5.0, lambda _ev, i=index: fired.append(i))
        sim.run()
        assert fired == list(range(2000))


class TestPopCohort:
    """Edge contract of the batched same-timestamp cohort pop the kernel
    hot loop is built on."""

    def test_empty_queue_returns_none(self):
        assert EventQueue().pop_cohort() is None

    def test_head_beyond_until_returns_none_and_keeps_entry(self):
        queue = EventQueue()
        event = Event("later")
        queue.push(10.0, event)
        assert queue.pop_cohort(until=5.0) is None
        assert len(queue) == 1
        time, payloads = queue.pop_cohort(until=10.0)
        assert time == 10.0
        assert list(payloads) == [event]

    def test_singleton_cohort(self):
        queue = EventQueue()
        a, b = Event("a"), Event("b")
        queue.push(1.0, a)
        queue.push(2.0, b)
        time, payloads = queue.pop_cohort()
        assert time == 1.0
        assert list(payloads) == [a]
        assert len(queue) == 1

    def test_cohort_in_push_order(self):
        queue = EventQueue()
        ties = [Event(str(i)) for i in range(6)]
        queue.push(0.5, Event("early"))
        for event in ties:
            queue.push(3.0, event)
        queue.pop()  # drain the early singleton
        time, payloads = queue.pop_cohort()
        assert time == 3.0
        assert list(payloads) == ties

    def test_limit_splits_cohort_preserving_order(self):
        queue = EventQueue()
        ties = [Event(str(i)) for i in range(7)]
        for event in ties:
            queue.push(1.0, event)
        time, first = queue.pop_cohort(limit=3)
        assert time == 1.0
        assert list(first) == ties[:3]
        # The remainder stays queued and pops first, still in order.
        time, rest = queue.pop_cohort()
        assert time == 1.0
        assert list(rest) == ties[3:]
        assert not queue

    def test_equal_time_pending_orders_after_live_ties(self):
        """An entry pushed at a timestamp that is already live must pop
        after every live tie at that timestamp (global FIFO), even when
        the push happens between pops."""
        queue = EventQueue()
        first, second = Event("first"), Event("second")
        queue.push(2.0, first)
        queue.push(1.0, Event("opener"))
        queue.pop()  # forces a merge; t=2.0 entries are now live
        queue.push(2.0, second)  # pending, equal to the live head
        time, payloads = queue.pop_cohort()
        assert time == 2.0
        assert list(payloads) == [first]
        time, payloads = queue.pop_cohort()
        assert time == 2.0
        assert list(payloads) == [second]

    def test_opcode_payloads_mix_with_events(self):
        from repro.sim.events import OP_BOOT

        queue = EventQueue()
        event = Event("e")
        queue.push(1.0, event)
        queue.push_wakeup(1.0, (OP_BOOT, "sentinel"))
        time, payloads = queue.pop_cohort()
        assert time == 1.0
        assert list(payloads) == [event, (OP_BOOT, "sentinel")]


class TestDiscard:
    """``discard`` takes one entry out by identity; the rest keep their
    places and their FIFO order."""

    def _drain(self, q):
        out = []
        while q:
            out.append(q.pop())
        return out

    def test_from_pending(self):
        q = EventQueue()
        a, b, c = ("a",), ("b",), ("c",)
        for payload in (a, b, c):
            q.push_wakeup(1.0, payload)
        assert q.discard(1.0, b)
        assert self._drain(q) == [(1.0, a), (1.0, c)]

    def test_pending_minimum_recomputed(self):
        q = EventQueue()
        early, late = ("early",), ("late",)
        q.push_wakeup(5.0, late)
        q.push_wakeup(2.0, early)
        assert q.discard(2.0, early)
        assert q.peek_time() == 5.0
        assert self._drain(q) == [(5.0, late)]

    def test_from_live(self):
        q = EventQueue()
        entries = [(float(t), (t, i)) for t in (3, 1, 2) for i in range(3)]
        for time, payload in entries:
            q.push_wakeup(time, payload)
        q.push_wakeup(0.5, ("first",))
        assert q.pop() == (0.5, ("first",))  # merges the rest into live
        assert q.discard(2.0, (2, 1)) is False  # equal, not identical
        victim = entries[7][1]  # (2, 1)
        assert q.discard(2.0, victim)
        expected = sorted(
            (e for e in entries if e[1] is not victim), key=lambda e: e[0]
        )
        assert self._drain(q) == expected

    def test_absent_entry(self):
        q = EventQueue()
        q.push_wakeup(1.0, tuple("a"))
        assert not q.discard(1.0, tuple("a"))  # equal, not identical
        assert not q.discard(2.0, tuple("b"))
        assert len(q) == 1


class TestTimerCancellation:
    """Pending timers must be cancellable/reschedulable: an interrupt
    invalidates the in-flight timeout wakeup (generation bump), and the
    stale wakeup later pops as a no-op."""

    def test_interrupted_timeout_does_not_fire(self):
        from repro.sim.kernel import Simulator
        from repro.sim.process import Interrupted, Timeout

        sim = Simulator()
        resumed = []

        def sleeper():
            try:
                yield Timeout(100.0)
                resumed.append(("timeout", sim.now))
            except Interrupted:
                resumed.append(("interrupted", sim.now))

        process = sim.spawn(sleeper())
        sim.schedule(5.0, lambda _ev: process.interrupt())
        sim.run()
        # The original t=100 wakeup is stale: the process saw only the
        # interrupt, and the clock still advanced through the stale
        # wakeup's timestamp without resuming anything.
        assert resumed == [("interrupted", 5.0)]
        assert not process.alive
        assert sim.now == 100.0

    def test_catch_and_reschedule_shorter_timer(self):
        from repro.sim.kernel import Simulator
        from repro.sim.process import Interrupted, Timeout

        sim = Simulator()
        resumed = []

        def sleeper():
            try:
                yield Timeout(100.0)
                resumed.append(("long", sim.now))
            except Interrupted:
                yield Timeout(1.0)  # reschedule a shorter timer
                resumed.append(("short", sim.now))

        process = sim.spawn(sleeper())
        sim.schedule(5.0, lambda _ev: process.interrupt())
        sim.run()
        assert resumed == [("short", 6.0)]
        assert not process.alive

    def test_stale_wakeup_cannot_resurrect_finished_process(self):
        from repro.sim.kernel import Simulator
        from repro.sim.process import Timeout

        sim = Simulator()
        log = []

        def sleeper():
            yield Timeout(50.0)
            log.append(sim.now)

        process = sim.spawn(sleeper())
        # Uncaught interrupt terminates the process at t=2; the queued
        # t=50 wakeup must then be ignored.
        sim.schedule(2.0, lambda _ev: process.interrupt())
        sim.run()
        assert log == []
        assert not process.alive
        from repro.sim.process import Interrupted

        assert isinstance(process.done.value, Interrupted)

    def test_repeated_interrupts_each_invalidate_the_previous_wait(self):
        from repro.sim.kernel import Simulator
        from repro.sim.process import Interrupted, Timeout

        sim = Simulator()
        attempts = []

        def stubborn():
            for retry in range(3):
                try:
                    yield Timeout(100.0)
                    attempts.append(("slept", retry, sim.now))
                    return
                except Interrupted:
                    attempts.append(("poked", retry, sim.now))
            attempts.append(("gave up", sim.now))

        process = sim.spawn(stubborn())
        for poke in (1.0, 2.0, 3.0):
            sim.schedule(poke, lambda _ev: process.interrupt())
        sim.run()
        assert attempts == [
            ("poked", 0, 1.0),
            ("poked", 1, 2.0),
            ("poked", 2, 3.0),
            ("gave up", 3.0),
        ]
        assert not process.alive


class TestCohortPermutation:
    """FIFO tie-break under permuted same-timestamp pushes.

    Cohort order is an accident of push order, and results must not
    depend on it (``tests/integration/test_cohort_permutation.py``
    shuffles every cohort); these tests pin down the other half of the
    contract: the accident is *deterministic*.  ``pop_cohort`` returns payloads
    in exactly push order for every permutation of logically
    independent same-instant pushes, regardless of what earlier/later
    times are interleaved and where the two-level merge boundaries
    fall.  A simulation whose outcome survives permuting such pushes is
    therefore genuinely order-independent — the property the
    cohort-permutation regression tests in ``tests/integration`` rely
    on.
    """

    def test_every_permutation_of_five_pops_in_push_order(self):
        import itertools

        for perm in itertools.permutations(range(5)):
            queue = EventQueue()
            for tag in perm:
                queue.push_wakeup(1.0, ("tag", tag))
            time, payloads = queue.pop_cohort()
            assert time == 1.0
            assert [p[1] for p in payloads] == list(perm)
            assert not queue

    def test_shuffled_pushes_across_mixed_timestamps(self):
        import random

        rng = random.Random(49374)
        for _ in range(50):
            stamps = [1.0, 2.0, 3.0]
            plan = [(t, i) for t in stamps for i in range(4)]
            rng.shuffle(plan)
            queue = EventQueue()
            expected = {t: [] for t in stamps}
            for t, i in plan:
                queue.push_wakeup(t, ("tag", t, i))
                expected[t].append(("tag", t, i))
            for t in stamps:
                time, payloads = queue.pop_cohort()
                assert time == t
                assert list(payloads) == expected[t]
            assert not queue

    def test_shuffle_survives_interleaved_pops_and_merges(self):
        import random

        rng = random.Random(7)
        for _ in range(25):
            queue = EventQueue()
            # Live a batch at t=5 by draining an opener, so later
            # pushes at t=5 cross the pending/live boundary mid-run.
            queue.push_wakeup(5.0, ("tag", "seed"))
            queue.push_wakeup(1.0, ("opener",))
            expected = [("tag", "seed")]
            order = list(range(6))
            rng.shuffle(order)
            for i in order[:3]:
                queue.push_wakeup(5.0, ("tag", i))
                expected.append(("tag", i))
            assert queue.pop() == (1.0, ("opener",))  # forces a merge
            for i in order[3:]:
                queue.push_wakeup(5.0, ("tag", i))
                expected.append(("tag", i))
            collected = []
            while queue:
                time, payloads = queue.pop_cohort()
                assert time == 5.0
                collected.extend(payloads)
            assert collected == expected

    def test_kernel_dispatch_matches_queue_order(self):
        """End to end: callbacks scheduled for one instant run in
        registration order even when registration order is shuffled."""
        import random

        from repro.sim import Simulator

        rng = random.Random(21)
        for _ in range(10):
            sim = Simulator()
            tags = list(range(8))
            rng.shuffle(tags)
            ran = []
            for tag in tags:
                sim.schedule(1.0, (lambda t: (lambda e: ran.append(t)))(tag))
            sim.run()
            assert ran == tags
