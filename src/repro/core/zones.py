"""The MRM block/zone address space.

Section 4 argues the MRM controller can be radically simple because the
workload needs no byte-addressable random access: IO is large and
sequential, data is written once and read many times, then expires.  The
natural interface is zoned, append-only block storage — "akin to zoned
storage interfaces for Flash [60]" — with the novel twist that every
block carries a *retention deadline* set at write time.

- A :class:`Zone` is a contiguous region written strictly sequentially
  via its write pointer and reclaimed as a whole (``reset``).
- A :class:`Block` is one append unit inside a zone; it records when and
  for how long it was written (its retention), from which its deadline
  and current RBER follow.
- :class:`ZonedAddressSpace` owns the geometry and the block metadata.

This module is pure bookkeeping — no timing or energy.  The
:class:`~repro.core.mrm.MRMDevice` layers device physics on top.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List


class BlockState(enum.Enum):
    FREE = "free"
    VALID = "valid"
    EXPIRED = "expired"  # deadline passed without refresh; contents suspect


@dataclass
class Block:
    """One written block: the unit of MRM metadata.

    Attributes
    ----------
    zone_id / index:
        Position in the address space.
    size_bytes:
        Bytes actually written (may be below the block capacity for the
        final append of a stream).
    written_at / retention_s:
        Write timestamp and programmed spec retention; the deadline is
        their sum.
    refresh_count:
        Times the block has been rewritten in place by the control plane.
    """

    zone_id: int
    index: int
    size_bytes: int
    written_at: float
    retention_s: float
    state: BlockState = BlockState.VALID
    refresh_count: int = 0

    @property
    def deadline(self) -> float:
        """Time at which the data ceases to meet its retention spec."""
        return self.written_at + self.retention_s

    def age(self, now: float) -> float:
        return max(0.0, now - self.written_at)

    def expired(self, now: float) -> bool:
        return now > self.deadline

    def remaining(self, now: float) -> float:
        """Seconds of spec retention left (negative once expired)."""
        return self.deadline - now


@dataclass
class Zone:
    """A sequential-write region of ``capacity_blocks`` block slots."""

    zone_id: int
    capacity_blocks: int
    block_bytes: int
    write_pointer: int = 0  # next free block slot
    reset_count: int = 0
    blocks: List[Block] = field(default_factory=list)

    @property
    def is_full(self) -> bool:
        return self.write_pointer >= self.capacity_blocks

    @property
    def is_empty(self) -> bool:
        return self.write_pointer == 0

    @property
    def written_bytes(self) -> int:
        return sum(b.size_bytes for b in self.blocks)

    def append(self, size_bytes: int, now: float, retention_s: float) -> Block:
        """Append one block; strictly sequential within the zone."""
        if self.is_full:
            raise RuntimeError(f"zone {self.zone_id} is full")
        if size_bytes <= 0 or size_bytes > self.block_bytes:
            raise ValueError(
                f"block write of {size_bytes} B outside (0, {self.block_bytes}]"
            )
        if retention_s <= 0:
            raise ValueError("retention must be positive")
        block = Block(
            zone_id=self.zone_id,
            index=self.write_pointer,
            size_bytes=size_bytes,
            written_at=now,
            retention_s=retention_s,
        )
        self.blocks.append(block)
        self.write_pointer += 1
        return block

    def reset(self) -> List[Block]:
        """Reclaim the whole zone; returns the blocks that were dropped."""
        dropped = self.blocks
        for block in dropped:
            block.state = BlockState.FREE
        self.blocks = []
        self.write_pointer = 0
        self.reset_count += 1
        return dropped


class ZonedAddressSpace:
    """Fixed geometry of zones × blocks with metadata queries.

    Parameters
    ----------
    num_zones / blocks_per_zone / block_bytes:
        Geometry.  Total capacity is their product.
    """

    def __init__(self, num_zones: int, blocks_per_zone: int, block_bytes: int) -> None:
        if num_zones < 1 or blocks_per_zone < 1 or block_bytes < 1:
            raise ValueError("geometry parameters must be >= 1")
        self.num_zones = num_zones
        self.blocks_per_zone = blocks_per_zone
        self.block_bytes = block_bytes
        self.zones: List[Zone] = [
            Zone(i, blocks_per_zone, block_bytes) for i in range(num_zones)
        ]

    @property
    def capacity_bytes(self) -> int:
        return self.num_zones * self.blocks_per_zone * self.block_bytes

    def zone(self, zone_id: int) -> Zone:
        if not 0 <= zone_id < self.num_zones:
            raise KeyError(f"zone {zone_id} outside [0, {self.num_zones})")
        return self.zones[zone_id]

    def open_zones(self) -> List[Zone]:
        """Zones with space remaining."""
        return [z for z in self.zones if not z.is_full]

    def empty_zones(self) -> List[Zone]:
        return [z for z in self.zones if z.is_empty]

    def iter_blocks(self) -> Iterator[Block]:
        for zone in self.zones:
            yield from zone.blocks

    def valid_blocks(self) -> List[Block]:
        return [b for b in self.iter_blocks() if b.state is BlockState.VALID]

    def expired_blocks(self, now: float) -> List[Block]:
        """Valid blocks whose retention deadline has passed."""
        return [b for b in self.valid_blocks() if b.expired(now)]

    def occupancy(self) -> float:
        """Fraction of block slots holding data."""
        used = sum(z.write_pointer for z in self.zones)
        return used / (self.num_zones * self.blocks_per_zone)

    def block_address(self, block: Block) -> int:
        """Byte address of a block within the flat device address space."""
        return (
            block.zone_id * self.blocks_per_zone + block.index
        ) * self.block_bytes
