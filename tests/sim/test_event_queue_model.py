"""Model-based check of :class:`EventQueue` against a plain reference.

The reference keeps every queued entry with its push number and hands
entries out in ``(time, push order)``.  Times come from a handful of
values, so ties, pushes equal to the live head, and merges that leave
part of the pending batch buffered all happen often.  A cohort of ``c``
payloads must be the reference's next ``c`` entries.
"""

from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import OP_STEP, Event, EventQueue

TIMES = st.sampled_from((0.0, 1.0, 1.5, 2.0, 3.0))

OPS = st.one_of(
    st.tuples(st.just("push"), TIMES),
    st.tuples(st.just("push_wakeup"), TIMES),
    st.tuples(st.just("pop")),
    st.tuples(st.just("pop_cohort"), st.none() | TIMES),
    st.tuples(st.just("discard"), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("peek_time")),
    st.tuples(st.just("len")),
)

ORDER = itemgetter(0, 1)


def _pop_cohort(queue, reference, until=None):
    """Pop one cohort and check it against the reference's next entries."""
    cohort = queue.pop_cohort(until)
    if not reference or (until is not None and reference[0][0] > until):
        assert cohort is None
        return
    time, payloads = cohort
    assert payloads
    expected = reference[: len(payloads)]
    assert all(entry[0] == time for entry in expected)
    assert all(got is entry[2] for got, entry in zip(payloads, expected))
    del reference[: len(payloads)]


@settings(max_examples=400, deadline=None)
@given(st.lists(OPS, max_size=80))
def test_queue_matches_reference(script):
    queue = EventQueue()
    reference = []  # (time, push number, payload), in (time, push order)
    gone = []  # (time, payload) of entries popped or discarded
    for number, op in enumerate(script):
        kind = op[0]
        if kind in ("push", "push_wakeup"):
            time = op[1]
            if kind == "push":
                payload = Event()
                queue.push(time, payload)
            else:
                payload = (OP_STEP, None, number, None)
                queue.push_wakeup(time, payload)
            reference.append((time, number, payload))
            reference.sort(key=ORDER)
        elif kind == "pop":
            if not reference:
                with pytest.raises(IndexError):
                    queue.pop()
                continue
            time, _, payload = reference.pop(0)
            got_time, got = queue.pop()
            assert got_time == time and got is payload
            gone.append((time, payload))
        elif kind == "pop_cohort":
            before = list(reference)
            _pop_cohort(queue, reference, op[1])
            gone.extend((e[0], e[2]) for e in before[: len(before) - len(reference)])
        elif kind == "discard":
            index, present = op[1], op[2]
            if present and reference:
                time, _, payload = reference.pop(index % len(reference))
                assert queue.discard(time, payload) is True
                gone.append((time, payload))
            else:
                time, payload = gone[index % len(gone)] if gone else (1.0, Event())
                assert queue.discard(time, payload) is False
        elif kind == "peek_time":
            assert queue.peek_time() == (reference[0][0] if reference else None)
        else:
            assert len(queue) == len(reference)
            assert bool(queue) == bool(reference)
    while reference:
        _pop_cohort(queue, reference)
    assert len(queue) == 0 and queue.pop_cohort() is None
