"""Data-object descriptors: what inference actually stores.

Section 2 identifies three in-memory data structures with very different
lifetimes and access patterns; retention-aware placement and DCM both
need those properties as first-class metadata.  This module defines the
vocabulary:

- :class:`DataKind` — weights / KV cache / activations (plus a generic
  kind for other data).
- :class:`AccessProfile` — read/write rates.
- :class:`DataObject` — one placeable object: a kind, a size, a
  *lifetime* (how long this copy must stay readable) and an access
  profile.

Factory helpers build correctly-parameterized objects for the three
inference structures from a model configuration, so experiments and the
tiering engine share one source of truth.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.units import DAY, HOUR


class DataKind(enum.Enum):
    """The inference data structures of Section 2."""

    WEIGHTS = "weights"
    KV_CACHE = "kv-cache"
    ACTIVATIONS = "activations"
    OTHER = "other"


@dataclass(frozen=True)
class AccessProfile:
    """How a data object is accessed while it lives.

    Attributes
    ----------
    read_bytes_per_s / write_bytes_per_s:
        Sustained bandwidth demands.
    """

    read_bytes_per_s: float
    write_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.read_bytes_per_s < 0 or self.write_bytes_per_s < 0:
            raise ValueError("rates must be >= 0")

    @property
    def read_write_ratio(self) -> float:
        """Bytes read per byte written (inf for never-written data)."""
        if self.write_bytes_per_s == 0:
            return float("inf")
        return self.read_bytes_per_s / self.write_bytes_per_s


_object_ids = itertools.count()


@dataclass
class DataObject:
    """One placeable unit of data.

    Attributes
    ----------
    kind / size_bytes:
        What and how big.
    lifetime_s:
        How long this copy must remain readable.  This is the number DCM
        matches retention to.  For weights it is the redeploy interval;
        for a KV cache, the context's remaining service time; for
        activations, one forward pass.
    access:
        The access profile.
    """

    kind: DataKind
    size_bytes: int
    lifetime_s: float
    access: AccessProfile
    name: str = ""
    object_id: int = field(default_factory=lambda: next(_object_ids))

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("size must be positive")
        if self.lifetime_s <= 0:
            raise ValueError("lifetime must be positive")
        if not self.name:
            self.name = f"{self.kind.value}-{self.object_id}"


# ---------------------------------------------------------------------------
# Factories for the three inference data structures
# ---------------------------------------------------------------------------
#: How long a weights copy lives: a new model version deploys weekly.
REDEPLOY_INTERVAL_S = 7 * DAY
#: How long activations live: one forward pass.
FORWARD_PASS_S = 0.05


def weights_object(
    size_bytes: int,
    read_bytes_per_s: float,
    name: str = "",
) -> DataObject:
    """Model weights: immutable, read every token, replaced wholesale
    when a new model version deploys (every
    :data:`REDEPLOY_INTERVAL_S`)."""
    return DataObject(
        kind=DataKind.WEIGHTS,
        size_bytes=size_bytes,
        lifetime_s=REDEPLOY_INTERVAL_S,
        access=AccessProfile(
            read_bytes_per_s=read_bytes_per_s,
            write_bytes_per_s=size_bytes / REDEPLOY_INTERVAL_S,
        ),
        name=name,
    )


def kv_cache_object(
    size_bytes: int,
    read_bytes_per_s: float,
    append_bytes_per_s: float,
    context_lifetime_s: float = 1 * HOUR,
    name: str = "",
) -> DataObject:
    """A context's KV cache: append-only soft state, fully re-read every
    decode step, recomputable from the token sequence (at real cost)."""
    return DataObject(
        kind=DataKind.KV_CACHE,
        size_bytes=size_bytes,
        lifetime_s=context_lifetime_s,
        access=AccessProfile(
            read_bytes_per_s=read_bytes_per_s,
            write_bytes_per_s=append_bytes_per_s,
        ),
        name=name,
    )


def activations_object(
    size_bytes: int,
    bandwidth_bytes_per_s: float,
    name: str = "",
) -> DataObject:
    """Layer activations: transient, write-heavy, alive for one forward
    pass only (:data:`FORWARD_PASS_S`) — the structure that genuinely
    wants DRAM/HBM."""
    return DataObject(
        kind=DataKind.ACTIVATIONS,
        size_bytes=size_bytes,
        lifetime_s=FORWARD_PASS_S,
        access=AccessProfile(
            read_bytes_per_s=bandwidth_bytes_per_s,
            write_bytes_per_s=bandwidth_bytes_per_s,
        ),
        name=name,
    )
