"""Span tracing on simulated time.

A :class:`Span` is a named interval of **simulated** time with a
deterministic integer id, an optional parent, and a flat attribute
dict.  The tracer never reads the wall clock: its clock is a callable
the owner provides (the sim kernel installs ``lambda: sim.now``; CLI
commands without a simulator leave the zero clock, which still yields a
meaningful span *tree* with zero-length intervals).  Lint rule RL011
rejects wall-clock or ``id()``-derived span names/attributes.

Two usage styles:

- ``with tracer.span("decode", engine="e0"):`` — nested scope on the
  tracer's stack; children opened inside parent to it.
- ``span = tracer.begin("process:engine-0"); ... tracer.end(span)`` —
  explicit open/close for intervals that outlive a lexical scope
  (simulation processes).  ``begin`` records the stack top as parent
  but does not push, so interleaved processes don't corrupt nesting.

Span ids are assigned from a per-tracer sequence counter, so traces are
a pure function of the recorded workload — bit-identical across runs
and across serial/parallel sweeps (each sweep point owns its tracer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    """One named interval of simulated time."""

    span_id: int
    name: str
    start_s: float
    parent_id: Optional[int] = None
    end_s: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_record(self) -> Dict[str, object]:
        """The JSON-lines export row (plain dict, sorted at dump time)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": dict(self.attrs),
        }


class _SpanScope:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = self._tracer._stack
        if stack and stack[-1] is self.span:
            stack.pop()
        self._tracer.end(self.span)


class Tracer:
    """Deterministic span recorder.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current *simulated* time.
        Defaults to the zero clock; :class:`repro.sim.kernel.Simulator`
        installs its own via :meth:`set_clock` when a tracer is
        attached.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self.spans: List[Span] = []
        self._next_id = 1
        self._stack: List[Span] = []

    def set_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, **attrs: object) -> Span:
        """Open a span at the current simulated time (explicit close)."""
        span = Span(
            span_id=self._next_id,
            name=name,
            start_s=self._clock(),
            parent_id=self._stack[-1].span_id if self._stack else None,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close a span at the current simulated time (idempotent)."""
        if span.end_s is None:
            now = self._clock()
            if now < span.start_s:
                raise ValueError(
                    f"span {span.name!r} would end before it starts "
                    f"({now} < {span.start_s})"
                )
            span.end_s = now
        return span

    def span(self, name: str, **attrs: object) -> _SpanScope:
        """Scoped span: opens now, parents nested spans, closes on exit."""
        return _SpanScope(self, self.begin(name, **attrs))

    def instant(self, name: str, **attrs: object) -> Span:
        """Zero-length span (a point event on the timeline)."""
        return self.end(self.begin(name, **attrs))
