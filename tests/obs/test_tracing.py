"""Unit tests for simulated-time span tracing."""

import pytest

from repro.obs import Span, Tracer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestTracer:
    def test_span_ids_are_sequential_from_one(self):
        tracer = Tracer()
        a = tracer.begin("a")
        b = tracer.begin("b")
        assert (a.span_id, b.span_id) == (1, 2)

    def test_scoped_spans_nest(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span("outer") as outer:
            clock.t = 1.0
            with tracer.span("inner") as inner:
                clock.t = 2.0
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.start_s == 1.0
        assert inner.end_s == 2.0
        assert outer.end_s == 2.0

    def test_begin_records_parent_without_pushing(self):
        tracer = Tracer()
        with tracer.span("parent"):
            first = tracer.begin("proc-1")
            second = tracer.begin("proc-2")
        # Both parented to the scoped span, not to each other.
        assert first.parent_id == second.parent_id
        assert first.parent_id is not None

    def test_end_is_idempotent(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.begin("s")
        clock.t = 1.0
        tracer.end(span)
        clock.t = 5.0
        tracer.end(span)
        assert span.end_s == 1.0

    def test_end_before_start_raises(self):
        clock = FakeClock()
        clock.t = 3.0
        tracer = Tracer(clock)
        span = tracer.begin("s")
        clock.t = 1.0
        with pytest.raises(ValueError):
            tracer.end(span)

    def test_instant_is_zero_length(self):
        clock = FakeClock()
        clock.t = 2.0
        span = Tracer(clock).instant("tick", kind="poll")
        assert span.start_s == span.end_s == 2.0
        assert span.attrs == {"kind": "poll"}

    def test_set_clock_and_now(self):
        tracer = Tracer()
        assert tracer.begin("before").start_s == 0.0
        tracer.set_clock(lambda: 7.5)
        assert tracer.begin("after").start_s == 7.5
        assert [span.name for span in tracer.spans] == ["before", "after"]

    def test_to_record_shape(self):
        record = Span(span_id=3, name="x", start_s=1.0).to_record()
        assert record == {
            "span_id": 3,
            "parent_id": None,
            "name": "x",
            "start_s": 1.0,
            "end_s": None,
            "attrs": {},
        }

