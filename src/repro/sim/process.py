"""Generator-based simulation processes and the commands they yield.

A process is a Python generator driven by the kernel.  Each ``yield``
hands the kernel a *command* describing what the process waits for next:

- :class:`Timeout` — resume after a simulated delay.
- :class:`WakeAt` — resume at an absolute simulated time.
- :class:`Wait` — resume when an :class:`~repro.sim.events.Event` fires;
  the event's ``value`` is sent back into the generator.
- :class:`Acquire` — resume once a unit of a
  :class:`~repro.sim.resources.Resource` is held.
- :class:`Release` — give a unit back (resumes immediately).

A process may also ``yield`` another :class:`Process` to join it (resume
when the child finishes; the child's return value is sent back).

This mirrors SimPy's programming model while staying ~200 lines and fully
deterministic.  Wakeups are scheduled as plain opcode tuples
(:data:`repro.sim.events.OP_STEP` and friends) rather than per-event
closures, so the kernel's hot loop never allocates a lambda per step —
see the batched dispatch in :mod:`repro.sim.kernel`.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.events import Event, OP_STEP, OP_THROW


class Command:
    """Base class for objects a process may yield to the kernel."""

    __slots__ = ()


class Timeout(Command):
    """Suspend the yielding process for ``delay`` simulated time units."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = float(delay)
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay})"


class WakeAt(Command):
    """Suspend the yielding process until absolute simulated ``time``.

    Unlike ``Timeout(time - now)``, the wakeup lands on exactly
    ``time``: ``now + (time - now)`` can miss a time computed as a
    running sum by one ulp.  A time before ``now`` raises
    ``ValueError`` when the process yields the command.
    """

    __slots__ = ("time", "value")

    def __init__(self, time: float, value: Any = None) -> None:
        self.time = float(time)
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WakeAt({self.time})"


class Wait(Command):
    """Suspend until ``event`` fires; its value is sent into the process."""

    __slots__ = ("event",)

    def __init__(self, event: Event) -> None:
        self.event = event


class Acquire(Command):
    """Suspend until one unit of ``resource`` is held by this process."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:  # noqa: F821
        self.resource = resource


class Release(Command):
    """Return one unit of ``resource``; the process resumes immediately."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:  # noqa: F821
        self.resource = resource


_UNSET = object()


class Process:
    """A running generator coroutine inside the simulator.

    Created via :meth:`repro.sim.kernel.Simulator.spawn`.  The
    :attr:`done` event fires when the generator returns; its value is the
    generator's return value.  The event is materialised lazily — a
    process nobody joins never allocates it.
    """

    __slots__ = (
        "sim",
        "generator",
        "name",
        "_alive",
        "_wait_generation",
        "_done",
        "_result",
        "_trace",
        "_wake_entry",
    )

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:  # noqa: F821
        self.sim = sim
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._alive = True
        self._done: Optional[Event] = None
        self._result: Any = _UNSET
        self._trace: Any = None
        #: ``(time, payload)`` of the last WakeAt wakeup queued, so that
        #: :meth:`wake_at` can take it out of the queue.
        self._wake_entry: Any = None
        # Incremented whenever the process changes what it waits on; a
        # stale wakeup (older generation) is ignored, so an interrupt
        # that the process catches cannot be followed by the original
        # timeout spuriously resuming it.
        self._wait_generation = 0

    @property
    def alive(self) -> bool:
        """True until the generator has returned or been interrupted."""
        return self._alive

    @property
    def done(self) -> Event:
        """The completion event (lazily created; pre-fired if finished)."""
        event = self._done
        if event is None:
            event = Event(name=f"done:{self.name}")
            if self._result is not _UNSET:
                event.value = self._result
                event.fired = True
            self._done = event
        return event

    def interrupt(self, exc: Optional[BaseException] = None) -> None:
        """Throw ``exc`` (default :class:`Interrupted`) into the process.

        The process may catch it and keep running; if it does not, it
        terminates and its ``done`` event fires with the exception as the
        value.
        """
        if not self._alive:
            return
        # Invalidate whatever wakeup the process was waiting on.
        self._wait_generation += 1
        sim = self.sim
        sim._queue.push_wakeup(
            sim._now, (OP_THROW, self, self._wait_generation, exc or Interrupted())
        )

    def wake_at(self, time: float) -> None:
        """Move this process's wakeup to absolute ``time``.

        A pending :class:`WakeAt` wakeup is taken out of the queue, so it
        neither fires nor moves the clock.  Any other wait is superseded
        as by :meth:`interrupt`: its wakeup still pops, as a no-op.
        ``time`` before ``now`` raises ``ValueError``.
        """
        sim = self.sim
        generation = self._wait_generation + 1
        payload = (OP_STEP, self, generation, None)
        sim._push_at(time, payload)
        pending = self._wake_entry
        if pending is not None and pending[1][2] == self._wait_generation:
            sim._queue.discard(*pending)
        self._wake_entry = (time, payload)
        self._wait_generation = generation

    def _step_if(
        self,
        generation: int,
        send_value: Any = None,
        throw: Optional[BaseException] = None,
    ) -> None:
        """Step only if this wakeup is still the current one."""
        if generation != self._wait_generation:
            return
        self._step(send_value, throw)

    def _finish(self, value: Any) -> None:
        """Record completion: end the trace span, fire ``done`` if built."""
        self._alive = False
        self._result = value
        trace = self._trace
        if trace is not None:
            # The span closes before joiners resume, matching the old
            # tracer-callback-registered-first ordering.
            self._trace = None
            trace[0].end(trace[1])
        event = self._done
        if event is not None:
            event.value = value
            event._fire()

    def _step(self, send_value: Any = None, throw: Optional[BaseException] = None) -> None:
        """Advance the generator one yield and interpret its command."""
        if not self._alive:
            # A stale wakeup (e.g. a Timeout that fires after the process
            # was interrupted) must not resurrect a finished process.
            return
        try:
            if throw is not None:
                command = self.generator.throw(throw)
            else:
                command = self.generator.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Interrupted as exc:
            self._finish(exc)
            return
        except Exception as exc:
            # The generator raised: the process is dead, and the failure
            # must surface from kernel.run() with simulation context —
            # not silently strand the process with _alive=True.
            self._alive = False
            raise SimProcessError(self, self.sim.now, exc) from exc
        if command.__class__ is Timeout:
            # Inlined fast path for the dominant command — one wakeup
            # tuple, no extra method call.
            generation = self._wait_generation + 1
            self._wait_generation = generation
            sim = self.sim
            sim._queue.push_wakeup(
                sim._now + command.delay, (OP_STEP, self, generation, command.value)
            )
            return
        self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        sim = self.sim
        self._wait_generation += 1
        generation = self._wait_generation
        # Exact-class checks first: commands are almost always the
        # concrete classes, and `is` skips the isinstance machinery on
        # the hot path.  The isinstance fallbacks keep subclasses legal.
        cls = command.__class__
        if cls is Timeout or isinstance(command, Timeout):
            sim._queue.push_wakeup(
                sim._now + command.delay, (OP_STEP, self, generation, command.value)
            )
        elif cls is WakeAt or isinstance(command, WakeAt):
            payload = (OP_STEP, self, generation, command.value)
            sim._push_at(command.time, payload)
            self._wake_entry = (command.time, payload)
        elif cls is Wait or isinstance(command, Wait):
            command.event._add_waiter(self, generation)
        elif cls is Acquire or isinstance(command, Acquire):
            command.resource._enqueue(self, generation)
        elif cls is Release or isinstance(command, Release):
            command.resource._release()
            sim._queue.push_wakeup(sim._now, (OP_STEP, self, generation, None))
        elif cls is Process or isinstance(command, Process):
            command.done._add_waiter(self, generation)
        elif isinstance(command, Event):
            command._add_waiter(self, generation)
        else:
            raise TypeError(
                f"process {self.name!r} yielded unsupported command: {command!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self._alive else "done"
        return f"<Process {self.name} {state}>"


class Interrupted(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called."""


class SimProcessError(RuntimeError):
    """A process generator raised mid-event.

    Wraps the original exception with the process name and the simulated
    time of the failure, so a crash deep inside a long run is
    attributable without a debugger.  The original exception is chained
    (``__cause__``) and its message embedded, so ``except``/``match``
    logic written against the original text keeps working.
    """

    def __init__(
        self, process: "Process", now: float, cause: BaseException
    ) -> None:
        super().__init__(
            f"process {process.name!r} failed at t={now:.6g}: "
            f"{type(cause).__name__}: {cause}"
        )
        self.process_name = process.name
        self.sim_time = now
        self.original = cause
