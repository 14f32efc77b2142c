"""Discrete-event simulation core.

This package is the timing substrate for every simulation in the library:
the inference-cluster simulator (:mod:`repro.inference`), the MRM
controller control plane (:mod:`repro.core.controller`), and the tiering
scheduler (:mod:`repro.tiering.scheduler`) all run on top of it.

It is a small, deterministic, generator-based discrete-event kernel in the
style of SimPy, implemented from scratch so the library has no simulation
dependency:

- :class:`~repro.sim.events.EventQueue` — a stable priority queue of
  timestamped events.
- :class:`~repro.sim.kernel.Simulator` — the event loop; schedules
  callbacks and drives processes.
- :class:`~repro.sim.process.Process` — a generator-based coroutine that
  yields :class:`~repro.sim.process.Timeout`,
  :class:`~repro.sim.process.WakeAt` or :class:`~repro.sim.process.Wait`
  commands.
- :class:`~repro.sim.stats.Histogram` — an exact-quantile sample
  histogram (TTFT, time between tokens).

Example
-------
>>> from repro.sim import Simulator, Timeout
>>> sim = Simulator()
>>> log = []
>>> def worker(env, name):
...     yield Timeout(1.0)
...     log.append((env.now, name))
>>> _ = sim.spawn(worker(sim, "a"))
>>> sim.run()
>>> log
[(1.0, 'a')]
"""

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.process import (
    Interrupted,
    Process,
    SimProcessError,
    Timeout,
    Wait,
    WakeAt,
)
from repro.sim.stats import Histogram

__all__ = [
    "Event",
    "EventQueue",
    "Histogram",
    "Interrupted",
    "Process",
    "SimProcessError",
    "Simulator",
    "Timeout",
    "Wait",
    "WakeAt",
]
