"""Tests for the sample histogram."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import Histogram


class TestHistogram:
    def test_moments(self):
        h = Histogram()
        for v in [1, 2, 3, 4, 5]:
            h.observe(v)
        assert h.count == 5
        assert h.mean() == 3.0
        assert h.total == 15.0
        assert h.stdev() == pytest.approx(math.sqrt(2.0))

    def test_quantiles_exact(self):
        h = Histogram()
        for v in range(101):
            h.observe(float(v))
        assert h.median() == 50.0
        assert h.quantile(0.0) == 0.0
        assert h.quantile(1.0) == 100.0
        assert h.quantile(0.25) == 25.0

    def test_quantile_interpolates(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(10.0)
        assert h.quantile(0.5) == 5.0

    def test_unsorted_input(self):
        h = Histogram()
        for v in [9, 1, 5, 3, 7]:
            h.observe(v)
        assert h.min() == 1
        assert h.max() == 9
        assert h.median() == 5

    def test_empty_histogram(self):
        h = Histogram()
        assert math.isnan(h.mean())
        assert h.quantile(0.5) is None
        assert h.median() is None

    def test_cdf(self):
        h = Histogram()
        for v in [1, 2, 3, 4]:
            h.observe(v)
        assert h.cdf(2.5) == 0.5
        assert h.cdf(0.0) == 0.0
        assert h.cdf(4.0) == 1.0

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)


class TestHistogramGrowth:
    """Regression: buffer growth must amortise under append-heavy and
    burst-heavy (``observe_many``) ingestion."""

    class _CountingHistogram(Histogram):
        __slots__ = ("grow_calls",)

        def __init__(self):
            self.grow_calls = []
            super().__init__()

        def _grow_to(self, need):
            self.grow_calls.append(need)
            super()._grow_to(need)

    def test_huge_burst_grows_once_without_overshoot(self):
        h = self._CountingHistogram()
        calls = h.grow_calls
        burst = list(range(1_000_000))
        h.observe_many(burst)
        assert len(calls) == 1
        # Sized exactly to the burst, not the next power of two.
        assert len(h._buf) == len(burst)
        assert h.count == len(burst)
        assert h.total == pytest.approx(sum(burst))

    def test_repeated_bursts_logarithmic_reallocations(self):
        h = self._CountingHistogram()
        calls = h.grow_calls
        total = 0
        for _ in range(2_000):
            h.observe_many([1.0] * 100)
            total += 100
        # At-least-doubling from 64 to 200k needs ~12 growth steps; the
        # old per-call behaviour would still pass here, but a linear
        # (grow-to-fit-only) policy would reallocate ~2000 times.
        assert len(calls) <= 2 * math.ceil(math.log2(total / 64)) + 1
        assert h.count == total

    def test_mixed_scalar_and_burst_ingestion(self):
        h = self._CountingHistogram()
        calls = h.grow_calls
        for i in range(500):
            h.observe(float(i))
            if i % 7 == 0:
                h.observe_many([float(i)] * 13)
        expected_count = 500 + 13 * len(range(0, 500, 7))
        assert h.count == expected_count
        assert len(calls) <= 16
        # Growth must not disturb recorded samples.
        assert h.max() == 499.0
        assert h.min() == 0.0

    def test_growth_preserves_existing_samples(self):
        h = Histogram()
        for v in range(64):  # fill initial capacity exactly
            h.observe(float(v))
        h.observe_many([1000.0, -5.0])
        assert h.count == 66
        assert h.min() == -5.0
        assert h.max() == 1000.0
        assert h.median() == pytest.approx(31.5)


class TestMomentsFoldInInsertionOrder:
    """The moments equal a plain ``total += v`` loop over the samples in
    the order they arrived, however scalar observes, bursts, quantile
    reads (which sort the buffer) and moment reads interleave."""

    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("one"), st.floats(-1e6, 1e6)),
                st.tuples(
                    st.just("many"),
                    st.lists(st.floats(-1e6, 1e6), max_size=40),
                ),
                st.tuples(st.just("quantile"), st.floats(0.0, 1.0)),
                st.tuples(st.just("moments"), st.none()),
            ),
            max_size=30,
        )
    )
    def test_matches_per_sample_reference(self, ops):
        h = Histogram()
        total = sumsq = 0.0
        count = 0
        for op, arg in ops:
            if op == "one":
                h.observe(arg)
                values = [arg]
            elif op == "many":
                h.observe_many(arg)
                values = arg
            else:
                if op == "quantile":
                    h.quantile(arg)
                elif count:
                    assert h.total == total
                    assert h.mean() == total / count
                continue
            for value in values:
                total += value
                sumsq += value * value
            count += len(values)
        assert h.count == count
        assert h.total == total
        if count > 1:
            mean = total / count
            assert h.stdev() == math.sqrt(max(0.0, sumsq / count - mean * mean))

    def test_large_backlog_folds_in_chunks(self):
        values = [float(v % 977) / 7.0 for v in range(3 * Histogram._FOLD_CHUNK + 5)]
        bulk = Histogram()
        bulk.observe_many(values)
        total = 0.0
        for value in values:
            total += value
        assert bulk.total == total
