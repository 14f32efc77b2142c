"""Event objects and the simulator's time-ordered event queue.

Events are the unit of scheduling in the kernel.  An :class:`Event` may be
*fired* at a simulated time with a payload; callbacks registered on it run
when the kernel processes it.  The :class:`EventQueue` orders entries by
``(time, sequence)`` so that entries scheduled for the same instant run in
the order they were scheduled (a stable, deterministic tiebreak — critical
for reproducible simulations).

The queue is a two-level batched structure rather than a binary heap: a
time-sorted live level popped O(1) from its tail, fed by a push-order
pending buffer that migrates in batches via a stable ``sorted`` and one
``bisect_left``.  That keeps the per-push cost at two list appends, lets
the kernel pop whole same-timestamp cohorts as slices, and turns the
steady-state "short timeout against a backlog of far-future events"
pattern into an O(1) tail extend instead of an O(log n) sift.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, List, Optional, Tuple

# Opcode tags for closure-free kernel wakeups.  A queue payload is either
# an :class:`Event` (fired on pop) or a plain tuple whose first element is
# one of these opcodes (dispatched by ``Simulator.run`` without
# allocating a per-event closure).  A step or throw whose generation is
# no longer the process's current one is stale and does nothing.
OP_STEP = 0  # (OP_STEP, process, generation, value) -> process._step(value)
OP_BOOT = 1  # (OP_BOOT, process)                    -> process._step(None)
OP_THROW = 2  # (OP_THROW, process, generation, exc) -> process._step(None, exc)

_INF = float("inf")


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, may be scheduled (given a time), and is
    *fired* exactly once by the kernel, at which point its callbacks run
    in registration order with ``(event)`` as the argument.

    Attributes
    ----------
    value:
        Arbitrary payload attached when the event is triggered.
    fired:
        True once the kernel has processed the event.
    """

    __slots__ = ("callbacks", "value", "fired", "scheduled", "_name")

    def __init__(self, name: str = "") -> None:
        # Lazily allocated: most events in a big run never get a
        # callback (pure timeouts), so skipping the empty list halves
        # the allocations on the scheduling hot path.
        self.callbacks: Optional[List[Any]] = None
        self.value: Any = None
        self.fired: bool = False
        self.scheduled: bool = False
        self._name = name

    @property
    def name(self) -> str:
        return self._name or f"event@{id(self):#x}"

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register *fn* to run when the event fires.

        If the event has already fired, the callback runs immediately —
        this makes "wait on a possibly-complete event" race-free.
        """
        if self.fired:
            fn(self)
        elif self.callbacks is None:
            self.callbacks = [fn]
        else:
            self.callbacks.append(fn)

    def _add_waiter(self, process: Any, generation: int) -> None:
        """Register a process wakeup without allocating a closure.

        The ``(process, generation)`` pair sits in the same callbacks
        list as plain callables and preserves registration order; the
        fired-already case resumes immediately, mirroring
        :meth:`add_callback`.
        """
        if self.fired:
            process._step_if(generation, self.value)
        elif self.callbacks is None:
            self.callbacks = [(process, generation)]
        else:
            self.callbacks.append((process, generation))

    def _fire(self) -> None:
        if self.fired:
            raise RuntimeError(f"event {self.name} fired twice")
        self.fired = True
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for fn in callbacks:
                if fn.__class__ is tuple:
                    fn[0]._step_if(fn[1], self.value)
                else:
                    fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.fired else ("scheduled" if self.scheduled else "pending")
        return f"<Event {self.name} {state}>"


class EventQueue:
    """Two-level batched priority queue ordered by ``(time, seq)``.

    **Tie-break contract** (load-bearing; see
    ``tests/sim/test_events.py::TestTieBreakContract``): entries pushed
    with *equal* times pop in exactly the order they were pushed, for
    any number of ties and regardless of what is interleaved between
    them.  The parallel sweep engine (:mod:`repro.parallel`) relies on
    this: a simulation's execution order — and therefore its result —
    is a pure function of its schedule order, never of timing noise,
    which is what makes per-point runs reproducible across worker
    processes.

    Layout: the *live* level ``(_lt, _lp)`` holds times/payloads sorted
    in **descending** time order, so the queue front is the end of the
    list — pops are O(1) ``list.pop()`` on unboxed Python floats, and a
    same-timestamp cohort is a slice off the tail.  Pushes land in the
    *pending* level ``(_pend_t, _pend_p)`` in push order (O(1) appends,
    no comparisons).  Pending migrates to live lazily, in batches, and
    only when an entry could precede the live head: the batch is
    stable-sorted (``sorted`` over push indices keyed on time) and the
    strictly-earlier-than-head prefix — located with one
    ``bisect_left`` — is reversed onto the live tail.  Entries at or
    after the head stay buffered; they cannot pop yet, and equal-time
    pendings were pushed later so they belong after every live tie
    anyway.  The live level therefore only ever *extends with entries
    earlier than its head*: there is no rebuild path, and each entry is
    appended, migrated and popped (or discarded) once.  An entry left
    buffered is sorted again with the next batch, as one already-sorted
    Timsort run.  Most merges move one or two entries (see
    ``docs/PERFORMANCE.md``), so the merge is plain list work with no
    per-call array setup, and Timsort keeps a burst of same-instant
    pushes linear.

    Sequence order is implicit: the pending lists record push order, the
    stable sort preserves it, and a merge never reorders live entries,
    so FIFO among equal times holds without storing counters.
    """

    __slots__ = ("_lt", "_lp", "_pend_t", "_pend_p", "_pend_min")

    def __init__(self) -> None:
        #: live times, descending (queue front at the end of the list)
        self._lt: List[float] = []
        #: live payloads, parallel to ``_lt``
        self._lp: List[Any] = []
        self._pend_t: List[float] = []
        self._pend_p: List[Any] = []
        self._pend_min = _INF

    def __len__(self) -> int:
        return len(self._lt) + len(self._pend_t)

    def __bool__(self) -> bool:
        return bool(self._lt) or bool(self._pend_t)

    def push(self, time: float, event: Event) -> None:
        """Schedule *event* to fire at simulated *time*."""
        if event.scheduled:
            raise RuntimeError(f"event {event.name} scheduled twice")
        if time != time:  # NaN guard
            raise ValueError("event time is NaN")
        event.scheduled = True
        self._pend_t.append(time)
        self._pend_p.append(event)
        if time < self._pend_min:
            self._pend_min = time

    def push_wakeup(self, time: float, payload: tuple) -> None:
        """Schedule an opcode-tuple wakeup (no :class:`Event` bookkeeping).

        Process boots, timeouts, wakeups and interrupt throws go through
        here: two list appends and no per-event object or closure.
        """
        if time != time:  # NaN guard
            raise ValueError("event time is NaN")
        self._pend_t.append(time)
        self._pend_p.append(payload)
        if time < self._pend_min:
            self._pend_min = time

    def discard(self, time: float, payload: Any) -> bool:
        """Take ``payload`` (matched by identity), queued at ``time``, out
        of the queue; returns False when it is not queued.

        Every other entry keeps its place, so push order among equal
        times still holds.  Searches the pending buffer from its newest
        entry, then the equal-time run of the sorted live level.
        """
        pend_p = self._pend_p
        for i in range(len(pend_p) - 1, -1, -1):
            if pend_p[i] is payload:
                del pend_p[i]
                del self._pend_t[i]
                if time == self._pend_min:
                    self._pend_min = min(self._pend_t, default=_INF)
                return True
        lt, lp = self._lt, self._lp
        # Live times are descending: find the first index at or below
        # ``time``, then scan its equal-time run.
        lo, hi = 0, len(lt)
        while lo < hi:
            mid = (lo + hi) // 2
            if lt[mid] > time:
                lo = mid + 1
            else:
                hi = mid
        while lo < len(lt) and lt[lo] == time:
            if lp[lo] is payload:
                del lt[lo]
                del lp[lo]
                return True
            lo += 1
        return False

    def pop(self) -> Tuple[float, Any]:
        """Remove and return the earliest ``(time, payload)`` pair."""
        if not self._ensure_front():
            raise IndexError("pop from empty EventQueue")
        return self._lt.pop(), self._lp.pop()

    def pop_cohort(
        self, until: Optional[float] = None
    ) -> Optional[Tuple[float, List[Any]]]:
        """Remove the earliest same-timestamp cohort as one batch.

        Returns ``(time, payloads)`` with payloads in push order, or
        ``None`` when the queue is empty or the head lies beyond
        ``until``.

        **Cohort contract** (pinned by ``tests/sim/test_events.py::
        TestCohortPermutation``): payloads come back in exactly push
        order for *every* permutation of same-timestamp pushes,
        regardless of interleaved times or merge boundaries.  Cohort
        order is therefore a pure function of registration order.
        Results must not depend even on that:
        ``tests/integration/test_cohort_permutation.py`` shuffles every
        multi-member cohort and asserts a chaos run stays bit-identical.
        """
        # _ensure_front, inlined (this is the hottest call in a run).
        lt = self._lt
        if self._pend_t and (not lt or self._pend_min < lt[-1]):
            self._merge()
            lt = self._lt
        if not lt:
            return None
        time = lt[-1]
        if until is not None and time > until:
            return None
        n = len(lt)
        if n == 1 or lt[n - 2] != time:
            # Singleton cohort (the common case under continuous time
            # distributions): two O(1) pops, no slicing.
            lt.pop()
            return time, (self._lp.pop(),)
        j = n - 2
        while j > 0 and lt[j - 1] == time:
            j -= 1
        lp = self._lp
        payloads = lp[j:]
        # Descending storage keeps the earliest-pushed tie at the end;
        # reversing the slice restores push (FIFO) order.
        payloads.reverse()
        del lt[j:]
        del lp[j:]
        return time, payloads

    def peek_time(self) -> Optional[float]:
        """Return the time of the earliest entry, or None if empty."""
        lt = self._lt
        if lt:
            head = lt[-1]
            pend_min = self._pend_min
            return head if head <= pend_min else pend_min
        if self._pend_t:
            return self._pend_min
        return None

    # ------------------------------------------------------------------
    # Merge machinery
    # ------------------------------------------------------------------
    def _ensure_front(self) -> bool:
        """Migrate pending entries iff one could precede the live head.

        Returns True when the live level is non-empty afterwards.
        """
        lt = self._lt
        if self._pend_t and (not lt or self._pend_min < lt[-1]):
            self._merge()
        return bool(self._lt)

    def _merge(self) -> None:
        """Migrate the pending entries that precede the live head.

        Called only when ``_pend_min`` beats the live head (or the live
        level is empty).  The pending batch is stable-sorted by time —
        push order breaks ties, so no sequence numbers are needed — and
        the strictly-earlier-than-head prefix, located with
        ``bisect_left``, moves onto the live tail (reversed: live storage
        is descending).  An equal-time pending entry was pushed after
        every live tie, so it stays buffered until that run drains.  The
        rest stays buffered, already sorted, preserving push order
        relative to future pushes appended after it.
        """
        pend_t, pend_p = self._pend_t, self._pend_p
        if len(pend_t) > 1:
            order = sorted(range(len(pend_t)), key=pend_t.__getitem__)
            pend_t = [pend_t[i] for i in order]
            pend_p = [pend_p[i] for i in order]
        lt = self._lt
        m = bisect_left(pend_t, lt[-1]) if lt else len(pend_t)
        lt.extend(reversed(pend_t[:m]))
        self._lp.extend(reversed(pend_p[:m]))
        self._pend_t = pend_t[m:]
        self._pend_p = pend_p[m:]
        self._pend_min = pend_t[m] if m < len(pend_t) else _INF
