"""Metric recorders for simulations.

These are deliberately simple and allocation-light so simulations can
record millions of samples:

- :class:`Counter` — monotonically increasing tally (events, bytes).
- :class:`TimeWeightedValue` — integrates a piecewise-constant signal over
  simulated time (queue depth, occupancy, power draw) and reports its
  time-weighted mean.
- :class:`Histogram` — fixed-bin histogram with exact count/sum and
  approximate quantiles.
- :class:`RateMeter` — counts per unit of simulated time.
- :class:`MetricRegistry` — a named bag of all of the above, with a
  ``snapshot()`` for report generation.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Union

import numpy as np


class Counter:
    """Monotonic event/byte counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name}={self.value}>"


class TimeWeightedValue:
    """Time-weighted integral of a piecewise-constant signal.

    Call :meth:`set` whenever the signal changes; the recorder integrates
    the previous level over the elapsed simulated time.
    """

    __slots__ = ("name", "_level", "_last_time", "_area", "_max", "_min", "_started")

    def __init__(self, name: str = "", initial: float = 0.0, start_time: float = 0.0) -> None:
        self.name = name
        self._level = initial
        self._last_time = start_time
        self._area = 0.0
        self._max = initial
        self._min = initial
        self._started = start_time

    @property
    def level(self) -> float:
        """Current signal level."""
        return self._level

    @property
    def peak(self) -> float:
        return self._max

    @property
    def trough(self) -> float:
        return self._min

    def set(self, now: float, level: float) -> None:
        """Record that the signal becomes ``level`` at time ``now``."""
        if now < self._last_time:
            raise ValueError(
                f"time went backwards in {self.name!r}: {now} < {self._last_time}"
            )
        self._area += self._level * (now - self._last_time)
        self._last_time = now
        self._level = level
        self._max = max(self._max, level)
        self._min = min(self._min, level)

    def adjust(self, now: float, delta: float) -> None:
        """Add ``delta`` to the current level at time ``now``."""
        self.set(now, self._level + delta)

    def mean(self, now: Optional[float] = None) -> float:
        """Time-weighted mean from creation until ``now`` (default: last update)."""
        end = self._last_time if now is None else now
        span = end - self._started
        if span <= 0:
            return self._level
        area = self._area + self._level * (end - self._last_time)
        return area / span


class Histogram:
    """Histogram with exact moments and sorted-sample quantiles.

    Keeps every sample (simulations here record millions) in a growable
    NumPy buffer — amortised O(1) ingestion with no per-sample Python
    object, C-speed sorting for quantiles, and a vectorised
    :meth:`observe_many` bulk path for batched recorders.
    """

    __slots__ = ("name", "_buf", "_n", "_sorted", "_sum", "_sumsq")

    _INITIAL_CAPACITY = 64

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._buf = np.empty(self._INITIAL_CAPACITY, dtype=np.float64)
        self._n = 0
        self._sorted = True
        self._sum = 0.0
        self._sumsq = 0.0

    def _grow_to(self, need: int) -> None:
        """Grow to ``max(2x, need)`` in one allocation and one copy.

        At-least-doubling keeps ingestion amortised O(1) per sample for
        any interleaving of scalar :meth:`observe` calls and
        :meth:`observe_many` bursts: a burst far beyond the current
        capacity is sized exactly (no power-of-two overshoot on huge
        arrays), while small spills still double so the number of
        reallocations stays logarithmic in the sample count.
        """
        capacity = max(2 * len(self._buf), need)
        grown = np.empty(capacity, dtype=np.float64)
        grown[: self._n] = self._buf[: self._n]
        self._buf = grown

    def observe(self, value: float) -> None:
        n = self._n
        if n and self._sorted and value < self._buf[n - 1]:
            self._sorted = False
        if n == len(self._buf):
            self._grow_to(n + 1)
        self._buf[n] = value
        self._n = n + 1
        self._sum += value
        self._sumsq += value * value

    def observe_many(self, values: Sequence[float]) -> None:
        """Bulk ingestion: one NumPy copy instead of a Python loop.

        Moments accumulate with NumPy's (deterministic) pairwise
        summation, which may round differently from an equivalent
        sequence of scalar :meth:`observe` calls — batched recorders
        should ingest consistently through one path.
        """
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        n = self._n
        need = n + arr.size
        if need > len(self._buf):
            self._grow_to(need)
        self._buf[n:need] = arr
        if self._sorted and (
            (n and arr[0] < self._buf[n - 1])
            or (arr.size > 1 and bool(np.any(np.diff(arr) < 0)))
        ):
            self._sorted = False
        self._n = need
        self._sum += float(np.add.reduce(arr))
        self._sumsq += float(np.add.reduce(arr * arr))

    @property
    def count(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        return self._sum

    def mean(self) -> float:
        if not self._n:
            return float("nan")
        return self._sum / self._n

    def stdev(self) -> float:
        n = self._n
        if n < 2:
            return 0.0
        mean = self._sum / n
        var = max(0.0, self._sumsq / n - mean * mean)
        return math.sqrt(var)

    def _ensure_sorted(self) -> np.ndarray:
        view = self._buf[: self._n]
        if not self._sorted:
            view.sort()
            self._sorted = True
        return view

    def samples(self) -> np.ndarray:
        """A copy of the recorded samples (insertion order not kept
        once a quantile has been asked for)."""
        return self._buf[: self._n].copy()

    def quantile(self, q: float) -> Optional[float]:
        """Exact empirical quantile, linear interpolation between ranks.

        Returns ``None`` when no samples have been recorded — callers
        must handle the empty case explicitly rather than propagate a
        quiet NaN into reports.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        samples = self._ensure_sorted()
        n = samples.size
        if n == 0:
            return None
        if n == 1:
            return float(samples[0])
        pos = q * (n - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return float(samples[lo] * (1 - frac) + samples[hi] * frac)

    def median(self) -> Optional[float]:
        return self.quantile(0.5)

    def max(self) -> float:
        return float(self._ensure_sorted()[-1]) if self._n else float("nan")

    def min(self) -> float:
        return float(self._ensure_sorted()[0]) if self._n else float("nan")

    def cdf(self, value: float) -> float:
        """Fraction of samples <= value."""
        samples = self._ensure_sorted()
        if samples.size == 0:
            return float("nan")
        rank = int(np.searchsorted(samples, value, side="right"))
        return rank / samples.size


class RateMeter:
    """Counts per unit of simulated time over an observation window."""

    __slots__ = ("name", "_count", "_start")

    def __init__(self, name: str = "", start_time: float = 0.0) -> None:
        self.name = name
        self._count = 0.0
        self._start = start_time

    def tick(self, amount: float = 1.0) -> None:
        self._count += amount

    def rate(self, now: float) -> float:
        span = now - self._start
        if span <= 0:
            return 0.0
        return self._count / span

    @property
    def count(self) -> float:
        return self._count


MetricLike = Union[Counter, TimeWeightedValue, Histogram, RateMeter]


class MetricRegistry:
    """A named collection of metrics with lazy creation.

    >>> reg = MetricRegistry()
    >>> reg.counter("reads").add(3)
    >>> reg.snapshot()["reads"]
    3.0
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, MetricLike] = {}

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def time_weighted(self, name: str, start_time: float = 0.0) -> TimeWeightedValue:
        metric = self._metrics.get(name)
        if metric is None:
            metric = TimeWeightedValue(name, start_time=start_time)
            self._metrics[name] = metric
        elif not isinstance(metric, TimeWeightedValue):
            raise TypeError(f"metric {name!r} is {type(metric).__name__}")
        return metric

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def rate(self, name: str, start_time: float = 0.0) -> RateMeter:
        metric = self._metrics.get(name)
        if metric is None:
            metric = RateMeter(name, start_time=start_time)
            self._metrics[name] = metric
        elif not isinstance(metric, RateMeter):
            raise TypeError(f"metric {name!r} is {type(metric).__name__}")
        return metric

    def _get(self, name: str, cls: type) -> MetricLike:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} is {type(metric).__name__}, not {cls.__name__}")
        return metric

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> Sequence[str]:
        return sorted(self._metrics)

    def snapshot(self, now: Optional[float] = None) -> Dict[str, float]:
        """One representative scalar per metric (counter value, TW mean,
        histogram mean, rate count)."""
        out: Dict[str, float] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Counter):
                out[name] = metric.value
            elif isinstance(metric, TimeWeightedValue):
                out[name] = metric.mean(now)
            elif isinstance(metric, Histogram):
                out[name] = metric.mean()
            elif isinstance(metric, RateMeter):
                out[name] = metric.count
        return out
