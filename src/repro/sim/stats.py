"""Sample recorder for simulations.

:class:`Histogram` keeps every sample of a distribution (TTFT, time
between tokens) with exact moments and exact, rank-interpolated
quantiles.  Simulations keep their counters as plain attributes on the
objects that own them; :mod:`repro.obs` reuses this class as the storage
of its labelled histograms.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np


def fold_sum(start: float, values: np.ndarray) -> float:
    """``start + values[0] + values[1] + ...``, added left to right.

    The bulk twin of a scalar ``total += value`` loop, rounding for
    rounding (``np.add.reduce`` sums pairwise and may not).
    """
    return float(np.add.accumulate(np.concatenate(([start], values)))[-1])


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

        Equal to calling :meth:`observe` on each value in order, moments
        included: they fold left to right (``np.add.accumulate``, never
        NumPy's pairwise sum), so a batched recorder rounds exactly as a
        per-sample one.
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
        self._sum = fold_sum(self._sum, arr)
        self._sumsq = fold_sum(self._sumsq, arr * arr)

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
