"""The discrete-event simulation kernel (event loop).

:class:`Simulator` owns the clock and the event queue.  Time only moves
when the loop pops the next event; between events, callbacks and process
steps run instantaneously at the current simulated time.

The loop is batched: the queue hands back whole same-timestamp *cohorts*
(see :meth:`repro.sim.events.EventQueue.pop_cohort`) and the kernel
dispatches each payload through a closure-free opcode switch — a plain
tuple ``(opcode, ...)`` for process boots, wakeups and throws, or an
:class:`~repro.sim.events.Event` to fire.  Nothing on the per-event
path allocates a lambda, and the clock/observability updates
are paid once per cohort instead of once per event.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.sim.events import OP_BOOT, OP_STEP, Event, EventQueue
from repro.sim.process import Process


class Simulator:
    """Deterministic discrete-event simulator.

    Time units are whatever the caller chooses (this library uses
    seconds everywhere).  Determinism: same schedule order in, same
    execution order out — ties in time break by scheduling order.

    Observability is opt-in: pass a :class:`repro.obs.MetricsRegistry`
    as ``obs`` to count events/spawns (plus a deterministic
    ``sim.events_per_sec`` gauge — events per *simulated* second, never
    wall time), and a :class:`repro.obs.Tracer` as ``tracer`` to open
    one simulated-time span per process.  Both default to off; the hot
    loop then pays one ``is not None`` branch per cohort (asserted < 2%
    in ``benchmarks/obs/``).

    Example
    -------
    >>> sim = Simulator()
    >>> sim.schedule(5.0, lambda ev: None)
    >>> sim.run()
    >>> sim.now
    5.0
    """

    __slots__ = (
        "_now",
        "_start",
        "_queue",
        "_running",
        "_events_done",
        "_obs_events",
        "_obs_spawns",
        "_obs_eps",
        "_tracer",
    )

    def __init__(
        self,
        start_time: float = 0.0,
        obs: Any = None,
        tracer: Any = None,
    ) -> None:
        self._now = float(start_time)
        self._start = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self._events_done = 0
        # Bind the counters once so the per-event cost with obs off (or
        # the null registry) is a single attribute check, not a lookup.
        live = obs is not None and obs.enabled
        self._obs_events = obs.counter("sim.events_total") if live else None
        self._obs_spawns = obs.counter("sim.processes_spawned_total") if live else None
        self._obs_eps = obs.gauge("sim.events_per_sec") if live else None
        self._tracer = tracer
        if tracer is not None:
            tracer.set_clock(self._clock)

    def _clock(self) -> float:
        return self._now

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Optional[Callable[[Event], None]] = None,
        value: Any = None,
        name: str = "",
    ) -> Event:
        """Create an event that fires ``delay`` from now; return it.

        ``callback`` (if given) is registered on the event.  ``value``
        becomes the event payload.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, value, name)

    def schedule_at(
        self,
        time: float,
        callback: Optional[Callable[[Event], None]] = None,
        value: Any = None,
        name: str = "",
    ) -> Event:
        """Like :meth:`schedule` but fires at exactly absolute ``time``."""
        event = Event(name=name)
        event.value = value
        if callback is not None:
            event.add_callback(callback)
        self._push_at(time, event)
        return event

    def _push_at(self, time: float, payload: Any) -> None:
        """Queue ``payload`` (an Event or an opcode tuple) at exactly
        ``time`` — the absolute-time path of :meth:`schedule_at`,
        :class:`~repro.sim.process.WakeAt` and
        :meth:`~repro.sim.process.Process.wake_at`."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past (time={time} < now={self._now})"
            )
        if payload.__class__ is tuple:
            self._queue.push_wakeup(time, payload)
        else:
            self._queue.push(time, payload)

    def event(self, name: str = "") -> Event:
        """Create an unscheduled event, to be triggered manually."""
        return Event(name=name)

    def trigger(self, event: Event, value: Any = None, delay: float = 0.0) -> None:
        """Schedule a manual event to fire ``delay`` from now with ``value``."""
        event.value = value
        self._queue.push(self._now + delay, event)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a generator as a simulation process.

        The first step runs at the current time (via a zero-delay
        wakeup) so that spawning inside a callback is safe.
        """
        process = Process(self, generator, name=name)
        if self._obs_spawns is not None:
            self._obs_spawns.add()
        if self._tracer is not None:
            # Span names come from Process.name (generator __name__ or
            # the caller's label) — deterministic, unlike event reprs.
            # The span handle rides on the process and closes when the
            # generator finishes (see Process._finish) — no callback
            # closure on the done event.
            span = self._tracer.begin(f"process:{process.name}")
            process._trace = (self._tracer, span)
        self._queue.push_wakeup(self._now, (OP_BOOT, process))
        return process

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue empties or ``until`` is reached.

        When stopping at ``until``, the clock is advanced to exactly
        ``until`` (events at later times stay queued).
        """
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        self._running = True
        obs_events = self._obs_events
        # Opcode dispatch is inlined into the loop body so each event
        # costs zero extra method calls.  Whether the clock stops at
        # `until` because later events remain or because the queue
        # drained, it lands on exactly `until`, so no peek is needed.
        pop_cohort = self._queue.pop_cohort
        try:
            while True:
                cohort = pop_cohort(until)
                if cohort is None:
                    break
                time, payloads = cohort
                if time < self._now:
                    raise RuntimeError(f"time went backwards: {time} < {self._now}")
                self._now = time
                count = len(payloads)
                self._events_done += count
                if obs_events is not None:
                    # One exact integer add per cohort: bit-identical to
                    # count repeated add(1) calls (integers are exact in
                    # float64 far beyond any event count).
                    obs_events.add(count)
                for payload in payloads:
                    if payload.__class__ is tuple:
                        op = payload[0]
                        if op == OP_STEP:
                            process = payload[1]
                            if payload[2] == process._wait_generation:
                                process._step(payload[3])
                        elif op == OP_BOOT:
                            payload[1]._step(None)
                        else:  # OP_THROW
                            process = payload[1]
                            if payload[2] == process._wait_generation:
                                process._step(None, payload[3])
                    else:
                        payload._fire()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            if self._obs_eps is not None:
                elapsed = self._now - self._start
                if elapsed > 0.0:
                    # Deterministic throughput gauge: events per
                    # *simulated* second (RL011 bans wall clocks here).
                    self._obs_eps.set(self._events_done / elapsed)

    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)
