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

    __slots__ = ("name", "_buf", "_n", "_sorted", "_sum", "_folded")

    _INITIAL_CAPACITY = 64

    #: Samples per accumulate when the moments catch up; bounds the
    #: fold's temporary arrays.
    _FOLD_CHUNK = 1 << 16

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._buf = np.empty(self._INITIAL_CAPACITY, dtype=np.float64)
        self._n = 0
        self._sorted = True
        #: The sum covers the first ``_folded`` samples; the rest fold in,
        #: in insertion order, when a moment is read or before a sort.
        self._sum = 0.0
        self._folded = 0

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

    def observe_many(self, values: Sequence[float]) -> None:
        """Bulk ingestion: one NumPy copy instead of a Python loop.

        Equal to calling :meth:`observe` on each value in order.
        """
        arr = np.asarray(values, dtype=np.float64).ravel()
        size = arr.size
        if size == 0:
            return
        n = self._n
        need = n + size
        if need > len(self._buf):
            self._grow_to(need)
        self._buf[n:need] = arr
        if self._sorted and (
            (n and arr[0] < self._buf[n - 1]) or (arr[1:] < arr[:-1]).any()
        ):
            self._sorted = False
        self._n = need

    def _fold(self) -> None:
        """Fold the samples observed since the last fold into the sum.

        Left to right in insertion order (:func:`fold_sum`, never
        NumPy's pairwise sum), so it rounds exactly as a per-sample
        ``total += value`` would have.
        """
        start, n = self._folded, self._n
        total = self._sum
        while start < n:
            chunk = self._buf[start : min(n, start + self._FOLD_CHUNK)]
            total = fold_sum(total, chunk)
            start += chunk.size
        self._sum, self._folded = total, n

    @property
    def count(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        self._fold()
        return self._sum

    def mean(self) -> float:
        if not self._n:
            return float("nan")
        self._fold()
        return self._sum / self._n

    def _ensure_sorted(self) -> np.ndarray:
        view = self._buf[: self._n]
        if not self._sorted:
            self._fold()  # sorting loses the insertion order
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

    def max(self) -> float:
        return float(self._ensure_sorted()[-1]) if self._n else float("nan")

    def min(self) -> float:
        return float(self._ensure_sorted()[0]) if self._n else float("nan")
