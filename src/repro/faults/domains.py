"""Correlated fault domains: the failure topology above single devices.

PR 3's fault layer draws *independent* per-device timelines.  Real
datacenter failures are correlated: one bank-group peripheral takes out
several banks, one engine crash loses every resident KV context at
once, one rack power feed drops every engine behind it.  This module
models that hierarchy explicitly —

    device  →  bank group  →  engine  →  rack / power domain

— as a list of :class:`FaultDomain` entries in a :class:`FaultTopology`.
A domain is a named blast radius: when it is struck, **every member**
receives a fault event at the same simulated instant.  The expansion is
pure arithmetic on the strike's frozen magnitude (no fresh RNG draws),
so a correlated schedule stays a pure function of
``(topology, rates, horizon, seed)`` — the property
:func:`repro.faults.schedule.generate_correlated_schedule` guarantees
and ``tests/faults/test_domains.py`` asserts.

Domain levels and the member-event kind a strike expands into:

| level | strike means | member events |
|---|---|---|
| ``bank-group`` | a shared peripheral (wordline driver, sense-amp stripe) dies | one ``BANK_FAILURE`` per member bank |
| ``engine`` | a serving engine crashes mid-decode | one ``ENGINE_CRASH`` for the engine |
| ``power`` | a rack/power feed drops | one ``ENGINE_CRASH`` per member engine, after a ``DOMAIN_POWER_LOSS`` marker |

Member identifiers are plain strings: engine names for serving-level
domains (matched against ``InferenceEngine.name``), device/bank labels
for device-level ones (the controller injector maps a ``BANK_FAILURE``
member event onto a concrete zone via its magnitude, as before).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.faults.events import FaultKind

#: Recognised domain levels, outermost last.
DOMAIN_LEVELS = ("bank-group", "engine", "power")

#: Member-event kind each level's strike expands into.
LEVEL_MEMBER_KIND = {
    "bank-group": FaultKind.BANK_FAILURE,
    "engine": FaultKind.ENGINE_CRASH,
    "power": FaultKind.ENGINE_CRASH,
}

#: Conjugate golden ratio: the low-discrepancy increment used to derive
#: per-member magnitudes from one frozen strike draw.  Provenance: the
#: standard Weyl-sequence constant (sqrt(5)-1)/2.
_GOLDEN = 0.6180339887498949


def spread_magnitude(magnitude: float, member_index: int) -> float:
    """Derive member ``i``'s magnitude from the strike's frozen draw.

    A Weyl sequence seeded at the strike magnitude: member ``i`` gets
    ``frac(magnitude + (i + 1) * golden)``.  Deterministic, in
    ``[0, 1)``, and well-spread across members so one strike does not
    make every member pick the same victim index.
    """
    value = (magnitude + (member_index + 1) * _GOLDEN) % 1.0
    # Guard the half-open interval against float round-up.
    return min(value, 1.0 - 1e-12)


@dataclass(frozen=True)
class FaultDomain:
    """One named blast radius in the failure topology.

    Attributes
    ----------
    name:
        Unique domain identifier (``"pd0"``, ``"bg0/dev0"``...).
    level:
        One of :data:`DOMAIN_LEVELS`; selects the member-event kind.
    members:
        Identifiers struck together — engine names for serving levels,
        device/bank labels for ``bank-group``.
    """

    name: str
    level: str
    members: Tuple[str, ...]

    def member_kind(self) -> FaultKind:
        return LEVEL_MEMBER_KIND[self.level]


@dataclass(frozen=True)
class FaultTopology:
    """The full domain list, in declaration order (the draw order).

    Construct directly or via :func:`cluster_topology`; call
    :meth:`validate` (the schedule generator does) before use —
    malformed topologies raise ``ValueError`` with a one-line message
    the CLI reports as ``error: ...`` with exit 2.
    """

    domains: Tuple[FaultDomain, ...]

    def validate(self) -> "FaultTopology":
        if not self.domains:
            raise ValueError("topology has no fault domains")
        seen: Dict[str, int] = {}
        for domain in self.domains:
            if not domain.name:
                raise ValueError("fault domain with an empty name")
            if domain.name in seen:
                raise ValueError(f"duplicate fault domain {domain.name!r}")
            seen[domain.name] = 1
            if domain.level not in DOMAIN_LEVELS:
                raise ValueError(
                    f"unknown domain level {domain.level!r} for "
                    f"{domain.name!r}; known: {', '.join(DOMAIN_LEVELS)}"
                )
            if not domain.members:
                raise ValueError(f"fault domain {domain.name!r} has no members")
            if len(set(domain.members)) != len(domain.members):
                raise ValueError(
                    f"fault domain {domain.name!r} lists a member twice"
                )
        return self


def cluster_topology(
    num_engines: int,
    engines_per_domain: int = 2,
    banks_per_group: int = 0,
) -> FaultTopology:
    """The standard serving topology: one ``engine`` domain per engine,
    engines grouped round-robin into ``power`` domains, plus optional
    device-level ``bank-group`` domains.

    Engine names follow the :class:`~repro.inference.cluster.Cluster`
    convention (``engine-0``, ``engine-1``...), so the topology lines up
    with a cluster of the same size without extra wiring.
    """
    if num_engines < 1:
        raise ValueError("topology needs at least one engine")
    if engines_per_domain < 1:
        raise ValueError("engines_per_domain must be >= 1")
    if banks_per_group < 0:
        raise ValueError("banks_per_group must be >= 0")
    engine_names = [f"engine-{i}" for i in range(num_engines)]
    domains: List[FaultDomain] = [
        FaultDomain(name=name, level="engine", members=(name,))
        for name in engine_names
    ]
    num_power = math.ceil(num_engines / engines_per_domain)
    for p in range(num_power):
        members = tuple(
            engine_names[p * engines_per_domain:(p + 1) * engines_per_domain]
        )
        domains.append(FaultDomain(name=f"pd{p}", level="power", members=members))
    if banks_per_group:
        domains.append(
            FaultDomain(
                name="bg0",
                level="bank-group",
                members=tuple(f"bank{i}" for i in range(banks_per_group)),
            )
        )
    return FaultTopology(domains=tuple(domains)).validate()


#: Per-domain strike rates (strikes per simulated second), keyed by
#: domain name.  Missing domains mean rate 0.
DomainRates = Mapping[str, float]


def validate_domain_rates(
    topology: FaultTopology, rates: DomainRates
) -> Dict[str, float]:
    """Check strike rates against a topology; returns a plain dict.

    Rejects (one-line ``ValueError``, the PR 3 CLI contract): rates for
    domains the topology does not define, negative rates, and
    non-finite (NaN/inf) rates.
    """
    known = {domain.name for domain in topology.domains}
    checked: Dict[str, float] = {}
    for name in rates:  # dict order: caller-declared, deterministic
        value = float(rates[name])
        if name not in known:
            raise ValueError(
                f"strike rate for unknown fault domain {name!r}"
            )
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"non-finite strike rate for domain {name!r}")
        if value < 0:
            raise ValueError(f"negative strike rate for domain {name!r}")
        checked[name] = value
    return checked
