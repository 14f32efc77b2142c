"""NAND Flash device with a real page-mapped Flash Translation Layer.

Flash's defining housekeeping cost is the FTL: because cells cannot be
rewritten in place (erase-before-write at multi-MiB block granularity),
the device maintains a logical-to-physical page map, garbage-collects
partially-invalid blocks (copying still-valid pages = write
amplification), and wear-levels so hot logical addresses do not burn out
single physical blocks.  Section 3 of the paper calls this the mirror
image of DRAM's problem: retention is too *long* for the data, and the
price is endurance plus energy-hungry write-path housekeeping.

The FTL here is a standard page-mapped design:

- out-of-place writes to the current *open block*;
- greedy garbage collection (pick the block with fewest valid pages)
  triggered when free blocks fall below a low-watermark;
- dynamic wear-leveling via free-block allocation ordered by erase count;
- TRIM support so the host can invalidate dead data (the MRM comparison
  point: matched retention makes data *expire* instead).

Experiments E6 (housekeeping) and E12 (Flash inadequacy) run on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.devices.base import MemoryDevice, TechnologyProfile
from repro.devices.catalog import NAND_SLC
from repro.units import GiB

#: GC starts when free blocks drop to this count.
GC_LOW_WATERMARK = 2


@dataclass
class _PhysicalBlock:
    """One erase block: a fixed array of physical pages."""

    index: int
    pages: int
    erase_count: int = 0
    write_pointer: int = 0  # next free page within the block
    valid: Set[int] = field(default_factory=set)  # page offsets holding live data

    @property
    def is_full(self) -> bool:
        return self.write_pointer >= self.pages

    @property
    def valid_count(self) -> int:
        return len(self.valid)


class FlashTranslationLayer:
    """Page-mapped FTL over an array of erase blocks.

    Exposes logical-page write/invalidate and runs GC internally.
    All sizes are in pages; the owning :class:`FlashDevice` converts
    bytes to pages.

    Parameters
    ----------
    num_blocks:
        Physical erase blocks, including over-provisioned ones.
    pages_per_block:
        Pages per erase block.
    overprovision:
        Fraction of physical capacity hidden from the logical space
        (industry-typical 7-28%).  More OP means lower write amplification.
    """

    def __init__(
        self,
        num_blocks: int,
        pages_per_block: int,
        overprovision: float = 0.07,
    ) -> None:
        if num_blocks < 4:
            raise ValueError("FTL needs at least 4 blocks")
        if not 0.0 <= overprovision < 0.9:
            raise ValueError(f"overprovision {overprovision} unreasonable")
        self.num_blocks = num_blocks
        self.pages_per_block = pages_per_block
        self.blocks = [_PhysicalBlock(i, pages_per_block) for i in range(num_blocks)]
        logical_blocks = int(num_blocks * (1.0 - overprovision))
        self.logical_pages = max(1, logical_blocks * pages_per_block)
        # logical page -> (block index, page offset)
        self.mapping: Dict[int, tuple] = {}
        self._free: List[int] = list(range(num_blocks))  # block indices, wear-ordered
        self._open: Optional[_PhysicalBlock] = None
        # GC relocations get their own destination block so host writes
        # and GC copies never contend for the same write pointer (and GC
        # cannot deadlock waiting on the block it is about to free).
        self._gc_open: Optional[_PhysicalBlock] = None
        # Statistics
        self.host_pages_written = 0
        self.flash_pages_written = 0
        self.gc_pages_copied = 0
        self.erases = 0

    # ------------------------------------------------------------------
    # Allocation / wear-leveling
    # ------------------------------------------------------------------
    def _take_free_block(self) -> _PhysicalBlock:
        if not self._free:
            raise RuntimeError("FTL out of free blocks (GC failed to reclaim)")
        # Dynamic wear-leveling: always open the least-erased free block.
        self._free.sort(key=lambda i: self.blocks[i].erase_count)
        return self.blocks[self._free.pop(0)]

    def _open_block(self) -> _PhysicalBlock:
        if self._open is None or self._open.is_full:
            if self._open is not None and self._open.is_full:
                self._open = None
            self._maybe_gc()
            self._open = self._take_free_block()
        return self._open

    # ------------------------------------------------------------------
    # Host operations
    # ------------------------------------------------------------------
    def write(self, logical_page: int) -> None:
        """Host write of one logical page (out-of-place)."""
        self._check_lpn(logical_page)
        self._invalidate(logical_page)
        block = self._open_block()
        offset = block.write_pointer
        block.write_pointer += 1
        block.valid.add(offset)
        self.mapping[logical_page] = (block.index, offset)
        self.host_pages_written += 1
        self.flash_pages_written += 1

    def trim(self, logical_page: int) -> None:
        """Host declares the page dead (no copy needed at GC time)."""
        self._check_lpn(logical_page)
        self._invalidate(logical_page)
        self.mapping.pop(logical_page, None)

    def is_mapped(self, logical_page: int) -> bool:
        return logical_page in self.mapping

    def _check_lpn(self, logical_page: int) -> None:
        if not 0 <= logical_page < self.logical_pages:
            raise ValueError(
                f"logical page {logical_page} outside [0, {self.logical_pages})"
            )

    def _invalidate(self, logical_page: int) -> None:
        old = self.mapping.get(logical_page)
        if old is not None:
            block_index, offset = old
            self.blocks[block_index].valid.discard(offset)

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def _maybe_gc(self) -> None:
        while len(self._free) < GC_LOW_WATERMARK:
            if not self._gc_once():
                break

    def _gc_once(self) -> bool:
        """Greedy GC: reclaim the closed block with fewest valid pages."""
        victim = self._pick_victim()
        if victim is None:
            return False
        if victim.valid:
            self._relocate_valid(victim)
        victim.valid.clear()
        victim.write_pointer = 0
        victim.erase_count += 1
        self.erases += 1
        self._free.append(victim.index)
        return True

    def _pick_victim(self) -> Optional[_PhysicalBlock]:
        candidates = [
            b
            for b in self.blocks
            if b.is_full
            and b is not self._open
            and b is not self._gc_open
            and b.index not in self._free
        ]
        if not candidates:
            return None
        victim = min(candidates, key=lambda b: b.valid_count)
        if victim.valid_count >= self.pages_per_block:
            return None  # nothing reclaimable: every page still valid
        return victim

    def _gc_destination(self) -> _PhysicalBlock:
        if self._gc_open is None or self._gc_open.is_full:
            if not self._free:
                raise RuntimeError(
                    "FTL wedged: GC needs a destination but no block is free"
                )
            self._free.sort(key=lambda i: self.blocks[i].erase_count)
            self._gc_open = self.blocks[self._free.pop(0)]
        return self._gc_open

    def _relocate_valid(self, victim: _PhysicalBlock) -> None:
        # Reverse map lookup: which logical pages live on the victim.
        # A mapping entry whose page was already invalidated (an
        # in-flight overwrite invalidates before it lands) must NOT be
        # relocated — only still-valid pages move.
        to_move = [
            lpn
            for lpn, (blk, off) in self.mapping.items()
            if blk == victim.index and off in victim.valid
        ]
        for lpn in to_move:
            dest = self._gc_destination()
            offset = dest.write_pointer
            dest.write_pointer += 1
            dest.valid.add(offset)
            self.mapping[lpn] = (dest.index, offset)
            self.flash_pages_written += 1
            self.gc_pages_copied += 1

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def write_amplification(self) -> float:
        """Flash writes per host write (>= 1.0)."""
        if self.host_pages_written == 0:
            return 1.0
        return self.flash_pages_written / self.host_pages_written

    def max_erase_count(self) -> int:
        return max(b.erase_count for b in self.blocks)

    def mean_erase_count(self) -> float:
        return sum(b.erase_count for b in self.blocks) / len(self.blocks)


class FlashDevice(MemoryDevice):
    """A NAND Flash device (SSD-like) fronted by the page-mapped FTL.

    ``write`` goes through the FTL, so host writes incur write
    amplification in both wear and energy; ``read`` resolves the mapping.
    ``trim`` lets the host drop dead data.
    """

    def __init__(
        self,
        profile: Optional[TechnologyProfile] = None,
        capacity_bytes: int = 1 * GiB,
        overprovision: float = 0.07,
        name: str = "",
    ) -> None:
        profile = profile or NAND_SLC
        if profile.erase_block_bytes is None:
            raise ValueError(f"{profile.name} has no erase block size; not Flash")
        super().__init__(profile, capacity_bytes, name=name)
        self.page_bytes = profile.access_granularity_bytes
        pages_per_block = profile.erase_block_bytes // self.page_bytes
        num_blocks = max(4, capacity_bytes // profile.erase_block_bytes)
        self.ftl = FlashTranslationLayer(
            num_blocks=num_blocks,
            pages_per_block=pages_per_block,
            overprovision=overprovision,
        )

    @property
    def logical_capacity_bytes(self) -> int:
        return self.ftl.logical_pages * self.page_bytes

    def _logical_pages_of(self, address: int, size_bytes: int) -> range:
        first = address // self.page_bytes
        last = (address + size_bytes - 1) // self.page_bytes
        return range(first, last + 1)

    def read(self, address: int, size_bytes: int):
        if address + size_bytes > self.logical_capacity_bytes:
            raise ValueError(
                f"{self.name}: read beyond logical capacity "
                f"{self.logical_capacity_bytes}"
            )
        return super().read(address, size_bytes)

    def write(self, address: int, size_bytes: int):
        """Host write: routed through the FTL page by page.

        Energy and wear are charged for *physical* flash writes, i.e.
        including GC copies — that is the write-amplification cost the
        paper's housekeeping argument is about.
        """
        if address < 0 or size_bytes <= 0:
            raise ValueError(f"bad access: address={address} size={size_bytes}")
        if address + size_bytes > self.logical_capacity_bytes:
            raise ValueError(
                f"{self.name}: write beyond logical capacity "
                f"{self.logical_capacity_bytes}"
            )
        flash_before = self.ftl.flash_pages_written
        for lpn in self._logical_pages_of(address, size_bytes):
            self.ftl.write(lpn)
        physical_pages = self.ftl.flash_pages_written - flash_before
        physical_bytes = physical_pages * self.page_bytes

        latency = self._write_time(physical_bytes)
        energy = physical_bytes * self.profile.write_energy_j_per_byte
        c = self.counters
        c.writes += 1
        c.bytes_written += physical_bytes
        c.write_energy_j += energy
        c.erases = self.ftl.erases
        from repro.devices.base import AccessKind, AccessResult

        return AccessResult(AccessKind.WRITE, address, size_bytes, latency, energy)

    def trim(self, address: int, size_bytes: int) -> None:
        """Invalidate a logical range (host knows the data is dead)."""
        for lpn in self._logical_pages_of(address, size_bytes):
            if self.ftl.is_mapped(lpn):
                self.ftl.trim(lpn)

    def write_amplification(self) -> float:
        return self.ftl.write_amplification()

    def lifetime_host_writes_bytes(self) -> float:
        """Total host bytes writable before rated wearout, given current
        write amplification (TBW-style figure)."""
        wa = self.write_amplification()
        return (
            self.capacity_bytes
            * self.profile.endurance_cycles
            / wa
        )
