"""Retention decay as a raw bit-error rate (RBER).

MRM deliberately writes data with finite retention, so "how wrong is the
data after time t?" is a first-class question (Section 4, retention-aware
error correction).  The model:

Each cell flips between its two states via thermally-activated escape —
a random telegraph process with mean switching time ``t_mean``.  The
probability a cell reads back wrong after age ``t`` is the telegraph
solution::

    RBER(t) = 1/2 * (1 - exp(-2 t / t_mean))

which grows linearly (``≈ t / t_mean``) while fresh and saturates at 0.5
(fully randomized) long after retention is exhausted.

Device datasheets do not quote ``t_mean``; they quote a *spec retention*
— the age at which RBER crosses a specified threshold (the level ECC can
still correct).  :class:`RetentionErrorModel` converts between the two,
so callers can say "this block was written with a 1-hour spec retention
at RBER 1e-4" and ask for the RBER at any age.

The ECC package (:mod:`repro.ecc`) consumes these RBERs to size codes;
the refresh scheduler (:mod:`repro.core.refresh`) uses the inverse — the
age at which RBER exceeds what the code corrects — as the refresh
deadline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RetentionErrorModel:
    """Maps (spec retention, data age) to raw bit-error rate.

    Attributes
    ----------
    rber_at_spec:
        The RBER that defines "retention reached" — the raw error rate
        at exactly the spec-retention age.  1e-4 is a typical
        correctable-by-ECC threshold for memory-class devices.
    """

    rber_at_spec: float = 1e-4

    def __post_init__(self) -> None:
        if not 0.0 < self.rber_at_spec < 0.5:
            raise ValueError(
                f"rber_at_spec must be in (0, 0.5), got {self.rber_at_spec}"
            )

    # ------------------------------------------------------------------
    # spec retention <-> mean switching time
    # ------------------------------------------------------------------
    def mean_switching_time(self, spec_retention_s: float) -> float:
        """Mean per-cell telegraph switching time implied by a spec
        retention: from ``1/2 (1 - exp(-2 t_spec / t_mean)) = rber_spec``.
        """
        if spec_retention_s <= 0:
            raise ValueError("spec retention must be positive")
        return 2.0 * spec_retention_s / -math.log1p(-2.0 * self.rber_at_spec)

    def spec_retention(self, mean_switching_time_s: float) -> float:
        """Inverse of :meth:`mean_switching_time`."""
        if mean_switching_time_s <= 0:
            raise ValueError("mean switching time must be positive")
        return mean_switching_time_s * -math.log1p(-2.0 * self.rber_at_spec) / 2.0

    # ------------------------------------------------------------------
    # RBER over age
    # ------------------------------------------------------------------
    def rber(self, age_s: float, spec_retention_s: float) -> float:
        """Raw bit-error rate of data aged ``age_s`` written at
        ``spec_retention_s``.

        Exactly ``rber_at_spec`` at ``age == spec_retention``; saturates
        at 0.5 far beyond the deadline.
        """
        if age_s < 0:
            raise ValueError("age must be >= 0")
        t_mean = self.mean_switching_time(spec_retention_s)
        return 0.5 * -math.expm1(-2.0 * age_s / t_mean)

    def age_for_rber(self, target_rber: float, spec_retention_s: float) -> float:
        """Age at which RBER reaches ``target_rber`` — the refresh
        deadline for a block whose ECC corrects up to ``target_rber``."""
        if not 0.0 < target_rber < 0.5:
            raise ValueError(f"target RBER must be in (0, 0.5), got {target_rber}")
        t_mean = self.mean_switching_time(spec_retention_s)
        return -0.5 * t_mean * math.log1p(-2.0 * target_rber)

    def expected_bit_errors(
        self, age_s: float, spec_retention_s: float, size_bytes: int
    ) -> float:
        """Expected raw bit errors in a block of ``size_bytes``."""
        if size_bytes < 0:
            raise ValueError("size must be >= 0")
        return self.rber(age_s, spec_retention_s) * size_bytes * 8
