"""The Managed-Retention Memory device.

This is the device class the paper proposes: a resistive memory that

- exposes a zoned, append-only *block* interface (no byte-addressable
  random access) — :mod:`repro.core.zones`;
- takes a **retention time as a parameter of every write** and programs
  cells just hard enough to hold the data that long
  (:class:`~repro.core.retention.RetentionModel` supplies the write
  energy / latency / endurance at each retention);
- does **no on-device housekeeping**: no refresh, no wear-leveling, no
  garbage collection.  Expiry, refresh and wear policy belong to the
  software control plane (:mod:`repro.core.controller`), which is
  "best-placed to make these decisions" (Section 4).

Wear is tracked as a *damage fraction* per physical block slot: a write
programmed for retention ``r`` consumes ``1 / endurance(r)`` of the
slot's life.  Gentle (short-retention) writes therefore wear the cell
far less than 10-year-strength writes — the mechanism behind Figure 1's
product-vs-potential endurance gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.errors import RetentionErrorModel
from repro.core.retention import RetentionModel, RetentionParams
from repro.core.zones import Block, BlockState, ZonedAddressSpace
from repro.devices.base import (
    AccessKind,
    AccessResult,
    BankFailure,
    DeviceFailure,
    MemoryDevice,
    TechnologyProfile,
)
from repro.devices.catalog import RRAM_POTENTIAL
from repro.units import DAY, GiB, MiB


@dataclass(frozen=True)
class MRMConfig:
    """Geometry and policy limits of one MRM device.

    Attributes
    ----------
    capacity_bytes:
        Total device capacity; rounded down to whole zones.
    block_bytes:
        Append/block unit.  The paper notes KV-cache pages are "several
        MBs to 10s of MBs" and read sequentially, so blocks are large.
    blocks_per_zone:
        Zone size in blocks (a zone resets as a unit).
    reference:
        The 10-year-retention technology the MRM cell derives from.
    retention_params:
        Shape of the retention trade-off (see
        :class:`~repro.core.retention.RetentionParams`).
    min_retention_s / max_retention_s:
        The managed-retention envelope.  ``max`` is deliberately days,
        not years: MRM refuses to be storage.
    operating_temperature_c:
        In-package temperature; writes are derated (programmed stronger)
        so the *target* retention holds at this temperature.
    bits_per_cell:
        Multi-level encoding (Section 3: cells "have already
        demonstrated potential for multi-level encoding [10]").  Extra
        bits multiply density but narrow the level windows: writes must
        be programmed for a stronger effective retention
        (``MLC_RETENTION_DERATE`` per extra bit) and pay extra
        program-verify energy (``MLC_WRITE_COST`` per extra bit).
    """

    capacity_bytes: int = 32 * GiB
    block_bytes: int = 8 * MiB
    blocks_per_zone: int = 32
    reference: TechnologyProfile = RRAM_POTENTIAL
    retention_params: RetentionParams = field(default_factory=RetentionParams)
    error_model: RetentionErrorModel = field(default_factory=RetentionErrorModel)
    min_retention_s: float = 1.0
    max_retention_s: float = 30 * DAY
    operating_temperature_c: float = 85.0
    bits_per_cell: int = 1

    #: Each extra bit per cell narrows level windows: the cell must be
    #: programmed as if for this factor more retention.
    MLC_RETENTION_DERATE = 4.0
    #: Program-verify energy multiplier per extra bit per cell.
    MLC_WRITE_COST = 1.5

    def __post_init__(self) -> None:
        if self.capacity_bytes < self.block_bytes * self.blocks_per_zone:
            raise ValueError("capacity smaller than a single zone")
        if self.min_retention_s <= 0 or self.max_retention_s <= self.min_retention_s:
            raise ValueError("need 0 < min_retention < max_retention")
        if self.bits_per_cell < 1:
            raise ValueError("bits_per_cell must be >= 1")

    @property
    def zone_bytes(self) -> int:
        return self.block_bytes * self.blocks_per_zone

    @property
    def num_zones(self) -> int:
        return self.capacity_bytes // self.zone_bytes


class RetentionOutOfRange(ValueError):
    """Requested retention outside the device's managed envelope."""


class MRMDevice(MemoryDevice):
    """One MRM device instance.

    The public surface is deliberately small — the paper's "lightweight
    memory controller":

    - :meth:`append` — write a block into a zone with a target retention;
    - :meth:`read_block` — sequential block read (and
      :meth:`read_block_passes`, the same reads repeated, in bulk);
    - :meth:`refresh_block` — rewrite a block in place (control-plane
      decision, paid like a write);
    - :meth:`reset_zone` — bulk reclaim;
    - :meth:`rber_of` — current raw bit-error rate of a block's data.

    Time is an explicit ``now`` argument everywhere; the device holds no
    clock, so it composes with the discrete-event simulator or with
    plain analytical code.
    """

    def __init__(self, config: Optional[MRMConfig] = None, name: str = "") -> None:
        self.config = config or MRMConfig()
        cfg = self.config
        self.retention_model = RetentionModel(cfg.reference, cfg.retention_params)
        self.error_model = cfg.error_model
        self.space = ZonedAddressSpace(
            cfg.num_zones, cfg.blocks_per_zone, cfg.block_bytes
        )
        super().__init__(
            profile=cfg.reference,
            capacity_bytes=self.space.capacity_bytes,
            wear_block_bytes=cfg.block_bytes,
            name=name or f"mrm-{cfg.reference.name}",
        )
        # Damage fraction per physical slot (zone_id, index) in [0, inf).
        self._damage: Dict[Tuple[int, int], float] = {}
        self.blocks_written = 0
        self.blocks_refreshed = 0
        self.blocks_expired = 0
        # Fault-injection state (see repro.faults): transient extra raw
        # bit errors per slot, failed banks, whole-device failure.
        self._injected_errors: Dict[Tuple[int, int], int] = {}
        self._failed_zones: Set[int] = set()
        self._failed = False

    # ------------------------------------------------------------------
    # Retention handling
    # ------------------------------------------------------------------
    def _validate_retention(self, retention_s: float) -> None:
        cfg = self.config
        if not cfg.min_retention_s <= retention_s <= cfg.max_retention_s:
            raise RetentionOutOfRange(
                f"retention {retention_s:.3g}s outside managed envelope "
                f"[{cfg.min_retention_s:.3g}, {cfg.max_retention_s:.3g}]s"
            )

    def programmed_retention(self, target_retention_s: float) -> float:
        """Retention to program so ``target_retention_s`` holds at the
        operating temperature (Arrhenius derating) with the MLC window
        margin (narrower levels decay past spec sooner)."""
        mlc_margin = self.config.MLC_RETENTION_DERATE ** (
            self.config.bits_per_cell - 1
        )
        return self.retention_model.required_retention_for_temperature(
            target_retention_s * mlc_margin, self.config.operating_temperature_c
        )

    def _mlc_write_cost(self) -> float:
        return self.config.MLC_WRITE_COST ** (self.config.bits_per_cell - 1)

    def write_energy_for(self, size_bytes: int, retention_s: float) -> float:
        """Energy of writing ``size_bytes`` at ``retention_s`` target."""
        programmed = self.programmed_retention(retention_s)
        return (
            size_bytes
            * self.retention_model.write_energy_j_per_byte(programmed)
            * self._mlc_write_cost()
        )

    def density_multiplier(self) -> float:
        """Areal density gain over the reference: MLC bits times the
        relaxed-retention transistor shrink (evaluated at the envelope
        midpoint)."""
        mid_retention = (self.config.min_retention_s * self.config.max_retention_s) ** 0.5
        return self.config.bits_per_cell * self.retention_model.density_multiplier(
            self.programmed_retention(mid_retention)
        )

    def write_latency_for(self, size_bytes: int, retention_s: float) -> float:
        programmed = self.programmed_retention(retention_s)
        return (
            self.retention_model.write_latency_s(programmed)
            + size_bytes / self.retention_model.write_bandwidth(programmed)
        )

    def endurance_at(self, retention_s: float) -> float:
        """Cell endurance when always written at this target retention."""
        programmed = self.programmed_retention(retention_s)
        return self.retention_model.endurance_cycles(programmed)

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------
    def append(
        self, zone_id: int, size_bytes: int, retention_s: float, now: float
    ) -> Tuple[Block, AccessResult]:
        """Append one block to ``zone_id`` with a target retention."""
        if self._failed:
            raise DeviceFailure(self.name)
        if zone_id in self._failed_zones:
            raise BankFailure(self.name, zone_id)
        self._validate_retention(retention_s)
        zone = self.space.zone(zone_id)
        block = zone.append(size_bytes, now, retention_s)
        result = self._charge_write(block)
        self.blocks_written += 1
        return block, result

    def _charge_write(self, block: Block) -> AccessResult:
        size = block.size_bytes
        latency = self.write_latency_for(size, block.retention_s)
        energy = self.write_energy_for(size, block.retention_s)
        c = self.counters
        c.writes += 1
        c.bytes_written += size
        c.write_energy_j += energy
        slot = (block.zone_id, block.index)
        self._damage[slot] = self._damage.get(slot, 0.0) + 1.0 / self.endurance_at(
            block.retention_s
        )
        address = self.space.block_address(block)
        return AccessResult(AccessKind.WRITE, address, size, latency, energy)

    def _check_readable(self, block: Block) -> None:
        if self._failed:
            raise DeviceFailure(self.name)
        if block.zone_id in self._failed_zones:
            raise BankFailure(self.name, block.zone_id)
        if block.state is not BlockState.VALID:
            raise RuntimeError(
                f"read of {block.state.value} block z{block.zone_id}b{block.index}"
            )

    def read_block(self, block: Block, now: float) -> AccessResult:
        """Sequential read of one block."""
        self._check_readable(block)
        address = self.space.block_address(block)
        return super().read(address, block.size_bytes)

    def read_block_passes(self, blocks: List[Block], passes: int) -> None:
        """Account ``passes`` sequential passes over ``blocks``: the
        counters :meth:`read_block` on each block, pass after pass, would
        leave (:meth:`~repro.devices.base.MemoryDevice.read_passes`),
        with the same checks on every block."""
        for block in blocks:
            self._check_readable(block)
        self.read_passes(
            [(self.space.block_address(b), b.size_bytes) for b in blocks],
            passes,
        )

    def rber_of(self, block: Block, now: float) -> float:
        """Raw bit-error rate of the block's data at time ``now``."""
        return self.error_model.rber(block.age(now), block.retention_s)

    def injected_bit_errors(self, block: Block) -> int:
        """The injected (transient-burst) errors alone — the component a
        re-read clears, as opposed to the age-driven decay."""
        return self._injected_errors.get((block.zone_id, block.index), 0)

    def refresh_block(self, block: Block, now: float) -> AccessResult:
        """Control-plane refresh: rewrite the block in place.

        Resets the block's age (and therefore its deadline); costs a full
        block write in energy, latency and wear.  The device counters
        book it as housekeeping: ``refreshes``, ``bytes_refreshed`` and
        ``refresh_energy_j``.
        """
        if self._failed:
            raise DeviceFailure(self.name)
        if block.zone_id in self._failed_zones:
            raise BankFailure(self.name, block.zone_id)
        if block.state is not BlockState.VALID:
            raise RuntimeError("refresh of non-valid block")
        block.written_at = now
        block.refresh_count += 1
        # Rewriting the cells clears any injected transient errors too.
        self._injected_errors.pop((block.zone_id, block.index), None)
        self.blocks_refreshed += 1
        result = self._charge_write(block)
        self.counters.refreshes += 1
        self.counters.bytes_refreshed += block.size_bytes
        self.counters.refresh_energy_j += result.energy_j
        self.counters.write_energy_j -= result.energy_j
        return result

    def mark_expired(self, block: Block) -> None:
        """Control-plane declares a block's data lost/abandoned."""
        if block.state is BlockState.VALID:
            block.state = BlockState.EXPIRED
            self.blocks_expired += 1

    def reset_zone(self, zone_id: int) -> List[Block]:
        """Reclaim a zone; all its blocks become free."""
        if zone_id in self._failed_zones:
            raise BankFailure(self.name, zone_id)
        for index in range(self.config.blocks_per_zone):
            self._injected_errors.pop((zone_id, index), None)
        return self.space.zone(zone_id).reset()

    # ------------------------------------------------------------------
    # Fault injection (driven by repro.faults; deterministic, no RNG)
    # ------------------------------------------------------------------
    @property
    def is_failed(self) -> bool:
        """True after :meth:`fail_device` — every access raises."""
        return self._failed

    @property
    def failed_zones(self) -> frozenset:
        """Zone ids lost to bank failures (never reusable)."""
        return frozenset(self._failed_zones)

    def inject_bit_errors(self, block: Block, bit_errors: int) -> None:
        """Add a transient raw-bit-error burst to a block's next reads.

        The burst persists until the cells are rewritten
        (:meth:`refresh_block`) or explicitly cleared
        (:meth:`clear_transient_errors` — the "re-read succeeds" path,
        since the noise source was transient).
        """
        if bit_errors < 0:
            raise ValueError("bit error count must be >= 0")
        if block.state is not BlockState.VALID:
            raise RuntimeError("cannot inject errors into a non-valid block")
        slot = (block.zone_id, block.index)
        self._injected_errors[slot] = (
            self._injected_errors.get(slot, 0) + bit_errors
        )

    def clear_transient_errors(self, block: Block) -> int:
        """Drop a block's injected burst (models a clean re-read);
        returns how many injected errors were cleared."""
        return self._injected_errors.pop((block.zone_id, block.index), 0)

    def inject_retention_violation(
        self, block: Block, now: float, severity: float = 2.0
    ) -> None:
        """Age a block past its retention deadline.

        Rewinds ``written_at`` so the block's age becomes ``severity``
        times its spec retention — its deadline is now in the past and
        its RBER is above the at-spec threshold, exactly the state a
        missed refresh or thermal excursion leaves behind.
        """
        if severity < 1.0:
            raise ValueError("severity below 1 is not a violation")
        if block.state is not BlockState.VALID:
            raise RuntimeError("cannot age a non-valid block")
        block.written_at = now - block.retention_s * severity

    def fail_bank(self, zone_id: int) -> List[Block]:
        """Fail one zone (bank): its valid blocks' data is lost and the
        zone is permanently unusable.  Returns the lost blocks."""
        zone = self.space.zone(zone_id)  # validates the id
        self._failed_zones.add(zone_id)
        lost = [b for b in zone.blocks if b.state is BlockState.VALID]
        for block in lost:
            block.state = BlockState.EXPIRED
            self.blocks_expired += 1
        return lost

    def fail_device(self) -> List[Block]:
        """Fail the whole device; every subsequent access raises
        :class:`~repro.devices.base.DeviceFailure`.  Returns all blocks
        whose data was live at the moment of failure."""
        self._failed = True
        return list(self.space.valid_blocks())

    # ------------------------------------------------------------------
    # Wear inspection (damage-fraction based)
    # ------------------------------------------------------------------
    def damage_of(self, zone_id: int, index: int) -> float:
        """Life consumed by a physical slot (1.0 = rated end of life)."""
        return self._damage.get((zone_id, index), 0.0)

    @property
    def max_damage(self) -> float:
        return max(self._damage.values()) if self._damage else 0.0

    @property
    def mean_damage(self) -> float:
        if not self._damage:
            return 0.0
        total_slots = self.config.num_zones * self.config.blocks_per_zone
        return sum(self._damage.values()) / total_slots

    def zone_damage(self, zone_id: int) -> float:
        """Peak damage across a zone's slots."""
        damages = [
            v for (z, _i), v in self._damage.items() if z == zone_id
        ]
        return max(damages) if damages else 0.0

    def remaining_lifetime_fraction(self) -> float:
        return max(0.0, 1.0 - self.max_damage)

    # ------------------------------------------------------------------
    # No-op housekeeping (the point of MRM)
    # ------------------------------------------------------------------
    def accrue_refresh_energy(self, duration_s: float, occupancy: float = 1.0) -> float:
        """MRM performs no autonomous refresh: zero energy, always.

        Refresh happens only when the control plane explicitly calls
        :meth:`refresh_block` — matched retention makes periodic
        device-side refresh unnecessary (Section 3).
        """
        return 0.0
