"""Seeded fault-schedule generation.

A :class:`FaultSchedule` is the *entire* randomness of a fault-injected
run, drawn up front from one ``numpy`` generator and frozen.  That is
the determinism contract:

1. Per-kind Poisson processes are drawn in the fixed
   :data:`~repro.faults.events.KIND_ORDER` (never set order), each as a
   cumulative sum of exponential gaps, from a single
   ``np.random.Generator`` seeded by the caller's int or ``SeedSequence``
   (``default_rng`` draws the same stream from ``n`` as from
   ``SeedSequence(n)``).
2. The per-kind streams are merged by ``(time, kind order, draw
   index)`` and numbered with a global ``seq`` — ties at the same
   instant break the same way on every run.
3. Each event carries a ``magnitude`` uniform draw frozen at schedule
   time; handlers never draw fresh randomness, so identical schedules
   produce identical effects.

Because the schedule is a pure function of ``(rates, duration, seed)``,
the same seed yields a bit-identical timeline whether the run executes
serially or as one point of a ``repro.parallel.run_sweep`` fan-out —
the property ``tests/faults/test_determinism.py`` asserts.

:func:`generate_correlated_schedule` extends the contract one level up:
strikes are drawn per *fault domain* (see :mod:`repro.faults.domains`)
and each strike expands into per-member events by pure arithmetic on
the strike's frozen magnitude, so correlated timelines are a pure
function of ``(topology, rates, horizon, seed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple, Union

import numpy as np

from repro.faults.domains import (
    DomainRates,
    FaultTopology,
    spread_magnitude,
    validate_domain_rates,
)
from repro.faults.events import (
    KIND_ORDER,
    FaultEvent,
    FaultKind,
    timeline_fingerprint,
)
from repro.faults.rates import KindRates

SeedLike = Union[int, np.random.SeedSequence]


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-ordered fault timeline for one run."""

    events: Tuple[FaultEvent, ...]
    duration_s: float

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def fingerprint(self) -> str:
        """Digest for serial-vs-parallel equality checks."""
        return timeline_fingerprint(self.events)


def _poisson_strikes(
    rng: np.random.Generator, rate: float, duration_s: float
) -> List[Tuple[float, float]]:
    """One Poisson stream's ``(time, magnitude)`` strikes in
    ``[0, duration_s)``: the exponential gaps first, in batches of the
    expected count plus slack (topped up in the vanishingly rare case
    the gap sum falls short of the horizon), then one uniform magnitude
    per strike."""
    times: List[float] = []
    t = 0.0
    batch = max(8, int(rate * duration_s * 1.5) + 8)
    while t < duration_s:
        gaps = rng.exponential(1.0 / rate, size=batch)
        for gap in gaps:
            t += float(gap)
            if t >= duration_s:
                break
            times.append(t)
    magnitudes = rng.random(size=len(times))
    return list(zip(times, magnitudes.tolist()))


def generate_schedule(
    rates: KindRates,
    duration_s: float,
    seed: SeedLike,
    device: str = "mrm",
) -> FaultSchedule:
    """Draw the fault timeline for one run.

    Parameters
    ----------
    rates:
        Events per second for each kind (missing kinds mean rate 0).
    duration_s:
        Horizon; events beyond it are not generated.
    seed:
        Root randomness — an int or a ``SeedSequence`` (e.g. the
        per-point seed ``run_sweep`` hands a point function).
    device:
        Device name stamped on every event.
    """
    if math.isnan(duration_s) or duration_s < 0:
        raise ValueError("duration must be >= 0")
    rng = np.random.default_rng(seed)
    # (time, kind_index, draw_index, magnitude) tuples, merged after all
    # kinds are drawn so the draw order never depends on the rates.
    drawn: List[Tuple[float, int, int, float]] = []
    for kind_index, kind in enumerate(KIND_ORDER):
        rate = rates.get(kind, 0.0)
        if math.isnan(rate) or math.isinf(rate):
            raise ValueError(f"non-finite rate for {kind.value}")
        if rate < 0:
            raise ValueError(f"negative rate for {kind.value}")
        if rate == 0 or duration_s == 0:
            continue
        for draw_index, (time_s, magnitude) in enumerate(
            _poisson_strikes(rng, rate, duration_s)
        ):
            drawn.append((time_s, kind_index, draw_index, magnitude))
    drawn.sort(key=lambda item: (item[0], item[1], item[2]))
    events = tuple(
        FaultEvent(
            time_s=time_s,
            kind=KIND_ORDER[kind_index],
            device=device,
            magnitude=magnitude,
            seq=seq,
        )
        for seq, (time_s, kind_index, _draw, magnitude) in enumerate(drawn)
    )
    return FaultSchedule(events=events, duration_s=float(duration_s))


def generate_correlated_schedule(
    topology: FaultTopology,
    strike_rates: DomainRates,
    duration_s: float,
    seed: SeedLike,
) -> FaultSchedule:
    """Draw a domain-correlated fault timeline for one run.

    Strikes are Poisson per domain, drawn in topology declaration order
    from one generator (same discipline as :func:`generate_schedule`'s
    per-kind streams).  Each strike freezes one uniform magnitude; the
    expansion into per-member events is pure arithmetic on that draw
    (:func:`~repro.faults.domains.spread_magnitude`), so the whole
    timeline — including every member event — is a pure function of
    ``(topology, rates, horizon, seed)``.

    Expansion per strike, all at the strike instant:

    - ``power`` domains emit a ``DOMAIN_POWER_LOSS`` marker (device =
      domain name) followed by one ``ENGINE_CRASH`` per member engine;
    - ``engine`` and ``bank-group`` domains emit member events only
      (``ENGINE_CRASH`` / ``BANK_FAILURE``, device = member name).

    Unlike :func:`generate_schedule`, a zero horizon is rejected: a
    correlated availability run with nothing to observe is a config
    error, not an empty timeline.
    """
    topology.validate()
    rates = validate_domain_rates(topology, strike_rates)
    if math.isnan(duration_s) or duration_s <= 0:
        raise ValueError("horizon must be > 0 for a correlated schedule")
    rng = np.random.default_rng(seed)
    # (time, domain_index, draw_index, member_slot, kind, device,
    # magnitude): member_slot -1 is the domain marker, 0.. the members.
    drawn: List[Tuple[float, int, int, int, FaultKind, str, float]] = []
    for domain_index, domain in enumerate(topology.domains):
        rate = rates.get(domain.name, 0.0)
        if rate == 0:
            continue
        member_kind = domain.member_kind()
        for draw_index, (time_s, strike_mag) in enumerate(
            _poisson_strikes(rng, rate, duration_s)
        ):
            if domain.level == "power":
                drawn.append((
                    time_s, domain_index, draw_index, -1,
                    FaultKind.DOMAIN_POWER_LOSS, domain.name, strike_mag,
                ))
            for member_index, member in enumerate(domain.members):
                drawn.append((
                    time_s, domain_index, draw_index, member_index,
                    member_kind, member,
                    spread_magnitude(strike_mag, member_index),
                ))
    drawn.sort(key=lambda item: (item[0], item[1], item[2], item[3]))
    events = tuple(
        FaultEvent(
            time_s=time_s,
            kind=kind,
            device=device,
            magnitude=magnitude,
            seq=seq,
        )
        for seq, (time_s, _d, _i, _m, kind, device, magnitude) in enumerate(
            drawn
        )
    )
    return FaultSchedule(events=events, duration_s=float(duration_s))
