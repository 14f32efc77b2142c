"""Fault-event vocabulary shared by every layer of the stack.

The framework models the failure modes the paper's Section 4 says the
*system* (not the device) must manage once retention is a write
parameter:

- **retention violations** — data outlives its programmed retention
  (a missed refresh deadline, thermal excursion, or mis-programmed
  write) and decays early;
- **bit-error bursts** — transient raw-bit-error spikes on a read
  (read disturb, voltage noise) on top of the telegraph decay model;
- **bank failures** — a zone's worth of cells becomes unreadable
  (peripheral/wordline failure); the data is gone, the capacity too;
- **device failures** — the whole device drops off the fabric;
- **KV-cache loss** — the serving-layer projection of any of the above:
  a running request's KV pages are no longer trustworthy;
- **engine crashes** — one inference engine (a tensor-parallel group and
  its serving loop) dies mid-decode: every resident KV context is gone
  and the engine is out of rotation until it restarts;
- **domain power loss** — a whole failure domain (rack/power feed)
  strikes at once; the event expands into correlated per-member events
  (see :mod:`repro.faults.domains`), so one bad feed takes out every
  engine behind it in the same simulated instant.

Every fault is a frozen :class:`FaultEvent` carrying the simulated time
it strikes, the device it targets, and a uniform ``magnitude`` draw in
``[0, 1)`` frozen at schedule-generation time.  Handlers turn the
magnitude into a concrete victim (which zone, which running context,
how many flipped bits) with pure arithmetic — never with fresh RNG
draws — so a timeline's effect is a function of the timeline alone.

:func:`timeline_fingerprint` hashes a sequence of events into a short
hex digest; the serial-vs-parallel determinism tests compare these
fingerprints across worker counts.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Iterable, Tuple


class FaultKind(enum.Enum):
    """The failure mode a fault event models."""

    RETENTION_VIOLATION = "retention-violation"
    BIT_ERROR_BURST = "bit-error-burst"
    BANK_FAILURE = "bank-failure"
    DEVICE_FAILURE = "device-failure"
    KV_LOSS = "kv-loss"
    # Serving-topology kinds (appended so existing KIND_ORDER indices —
    # and therefore existing schedule fingerprints — never move).
    ENGINE_CRASH = "engine-crash"
    DOMAIN_POWER_LOSS = "domain-power-loss"


#: Deterministic ordering of kinds for schedule merging (enum definition
#: order — never iterate a set of kinds).
KIND_ORDER: Tuple[FaultKind, ...] = tuple(FaultKind)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes
    ----------
    time_s:
        Simulated time the fault strikes.
    kind:
        Failure mode.
    device:
        Name of the targeted device (catalog profile or instance name).
    magnitude:
        Uniform draw in ``[0, 1)`` frozen at schedule time; handlers map
        it onto a concrete victim/size deterministically.
    seq:
        Position in the merged schedule (0-based); the tie-break for
        events striking at the same instant.
    """

    time_s: float
    kind: FaultKind
    device: str
    magnitude: float
    seq: int

    def as_record(self) -> dict:
        """JSON-serializable view (used by fingerprints and logs)."""
        record = asdict(self)
        record["kind"] = self.kind.value
        return record


def timeline_fingerprint(events: Iterable[FaultEvent]) -> str:
    """Short stable digest of an event sequence.

    Canonical JSON (sorted keys, explicit float repr) hashed with
    SHA-256; equal timelines — bit-identical times, kinds, targets,
    magnitudes, order — produce equal fingerprints.
    """
    payload = json.dumps(
        [event.as_record() for event in events],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
