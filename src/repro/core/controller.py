"""The MRM software control plane ("lightweight memory controller").

Section 4's controller argument: keep the device dumb (block access
only), and host refresh, wear-leveling and reclamation decisions in
software with global visibility.  :class:`MRMController` is that control
plane for one device.  It composes:

- :class:`~repro.core.wear.WearLeveler` — which zone to open next;
- :class:`~repro.core.refresh.RefreshScheduler` — refresh-or-expire at
  each block's retention deadline;
- retention-class *zone affinity*: writes with similar retention land in
  the same zone, so a zone's blocks expire together and the whole zone
  resets without copying — the append-only analogue of avoiding GC
  write amplification.

The public API is deliberately storage-like: ``write`` a buffer with a
retention and a liveness predicate, ``read`` it back, ``delete`` it, and
``tick`` the clock forward so deadline decisions run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mrm import MRMDevice
from repro.core.refresh import LivenessFn, RefreshDecision, RefreshScheduler
from repro.core.wear import WearLeveler
from repro.core.zones import Block, BlockState, Zone
from repro.devices.base import BankFailure
from repro.ecc.bch import BCHCode, DecodeOutcome
from repro.obs import NULL_REGISTRY

#: How far (in raw bit errors) a read leap keeps every block's decay
#: count below the ECC rounding edge: room for libm's last-bit error.
LEAP_MARGIN = 1e-6


@dataclass
class ControllerStats:
    """Aggregate controller activity."""

    writes: int = 0
    reads: int = 0
    deletes: int = 0
    zones_reclaimed: int = 0
    migrations_requested: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    # Fault handling (see repro.faults and read_with_recovery)
    read_retries: int = 0
    escalated_refreshes: int = 0
    data_loss_blocks: int = 0
    silent_corruptions: int = 0
    remapped_zones: int = 0
    blocks_recovered: int = 0


@dataclass(frozen=True)
class RecoveryConfig:
    """How the control plane responds to detected read failures.

    The three mitigation paths Section 4's software control plane can
    take, each with an explicit cost model:

    - **retry with backoff** — a re-read at exponentially growing delay;
      recovers transient bursts (the noise source is gone on re-read).
    - **refresh escalation** — after retries are exhausted, restore the
      block from its durable upstream copy by rewriting it in place
      (MRM data "is durable elsewhere or is soft state", Section 4);
      costs a full block write.
    - **remap** — a failed bank's zone is retired from allocation so
      new writes stop landing on dead cells.

    ``enabled=False`` gives the no-mitigation baseline: a detected
    uncorrectable read is immediately reported as data loss.
    """

    enabled: bool = True
    max_read_retries: int = 2
    retry_backoff_s: float = 100e-6  # first re-read delay; doubles per try
    refresh_escalation: bool = True
    remap_on_bank_failure: bool = True

    def __post_init__(self) -> None:
        if self.max_read_retries < 0:
            raise ValueError("max_read_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")


@dataclass
class RecoveredRead:
    """Outcome of :meth:`MRMController.read_with_recovery`."""

    latency_s: float = 0.0
    energy_j: float = 0.0
    #: blocks whose data could not be delivered (unrecoverable).
    lost_blocks: List[Block] = None
    #: blocks delivered silently wrong (miscorrection) — counted, not
    #: flagged to the caller, because the decoder cannot know.
    miscorrected_blocks: int = 0

    def __post_init__(self) -> None:
        if self.lost_blocks is None:
            self.lost_blocks = []

    @property
    def ok(self) -> bool:
        return not self.lost_blocks


class MRMController:
    """Software control plane over one :class:`~repro.core.mrm.MRMDevice`.

    Parameters
    ----------
    device:
        The managed device.
    wear_policy:
        Zone-allocation policy name (see :class:`WearLeveler`).
    guard_band:
        Refresh scheduler guard band.
    retention_affinity:
        If True (default), writes are bucketed into zones by
        log2(retention) so zone contents expire together.
    """

    def __init__(
        self,
        device: MRMDevice,
        wear_policy: str = "least-worn",
        guard_band: float = 0.1,
        retention_affinity: bool = True,
        ecc_code: Optional[BCHCode] = None,
        recovery: Optional[RecoveryConfig] = None,
        obs=None,
    ) -> None:
        self.device = device
        self.wear = WearLeveler(device, policy=wear_policy)
        self.scheduler = RefreshScheduler(device, guard_band=guard_band)
        self.retention_affinity = retention_affinity
        self.stats = ControllerStats()
        #: observability registry; ControllerStats stays authoritative,
        #: the registry mirrors it per event for snapshots/exports.
        self.obs = obs if obs is not None else NULL_REGISTRY
        o = self.obs
        self._obs_writes = o.counter("ctrl.writes_total")
        self._obs_reads = o.counter("ctrl.reads_total")
        self._obs_deletes = o.counter("ctrl.deletes_total")
        self._obs_bytes_written = o.counter("ctrl.bytes_written_total")
        self._obs_bytes_read = o.counter("ctrl.bytes_read_total")
        self._obs_read_retries = o.counter("ctrl.read_retries_total")
        self._obs_escalations = o.counter("ctrl.refresh_escalations_total")
        self._obs_data_loss = o.counter("ctrl.data_loss_blocks_total")
        self._obs_miscorrections = o.counter("ctrl.silent_corruptions_total")
        self._obs_remaps = o.counter("ctrl.zones_remapped_total")
        self._obs_recovered = o.counter("ctrl.blocks_recovered_total")
        self._obs_reclaimed = o.counter("ctrl.zones_reclaimed_total")
        self._obs_migrations = o.counter("ctrl.migrations_requested_total")
        self._obs_refreshes = o.counter("ctrl.refreshes_total")
        self._obs_expiries = o.counter("ctrl.expiries_total")
        self._obs_read_latency = o.histogram("ctrl.read_latency_s")
        #: the code the recovery path decodes against (None: reads are
        #: assumed clean — the pre-fault-framework behaviour).
        self.ecc_code = ecc_code
        self.recovery = recovery or RecoveryConfig()
        # retention-class bucket -> zone currently open for that class
        self._open_zones: Dict[int, Zone] = {}
        #: blocks handed to the caller for migration (device too worn)
        self.migration_queue: List[Block] = []

    # ------------------------------------------------------------------
    # Zone management
    # ------------------------------------------------------------------
    def _bucket_of(self, retention_s: float) -> int:
        if not self.retention_affinity:
            return 0
        return int(math.floor(math.log2(max(retention_s, 1e-9))))

    def _zone_for(self, retention_s: float) -> Zone:
        bucket = self._bucket_of(retention_s)
        zone = self._open_zones.get(bucket)
        if zone is None or zone.is_full:
            zone = self.wear.pick_zone()
            self._open_zones[bucket] = zone
        return zone

    def _reclaim_dead_zones(self) -> int:
        """Reset every full zone with no remaining valid blocks."""
        reclaimed = 0
        # A full zone is closed: drop it from the open set so it becomes
        # reclaimable as soon as its blocks die.
        self._open_zones = {
            bucket: zone
            for bucket, zone in self._open_zones.items()
            if not zone.is_full
        }
        open_ids = {z.zone_id for z in self._open_zones.values()}
        failed = self.device.failed_zones
        for zone in self.device.space.zones:
            if zone.is_empty or zone.zone_id in open_ids:
                continue
            if zone.zone_id in failed:  # dead bank: nothing to reclaim
                continue
            if all(b.state is not BlockState.VALID for b in zone.blocks):
                self.device.reset_zone(zone.zone_id)
                reclaimed += 1
        self.stats.zones_reclaimed += reclaimed
        self._obs_reclaimed.add(reclaimed)
        return reclaimed

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def write(
        self,
        size_bytes: int,
        retention_s: float,
        now: float,
        liveness: Optional[LivenessFn] = None,
    ) -> List[Block]:
        """Write ``size_bytes`` with a target retention.

        The buffer is split into device blocks, placed in the open zone
        of the matching retention class, and registered with the refresh
        scheduler.  ``liveness`` defaults to "dead at first deadline"
        (write-once data that simply expires — the KV-cache common case).

        Returns the blocks holding the data, in order.
        """
        if size_bytes <= 0:
            raise ValueError("size must be positive")
        liveness = liveness or (lambda _block, _now: False)
        block_bytes = self.device.config.block_bytes
        blocks: List[Block] = []
        remaining = size_bytes
        while remaining > 0:
            chunk = min(remaining, block_bytes)
            zone = self._zone_for(retention_s)
            block, _result = self.device.append(zone.zone_id, chunk, retention_s, now)
            self.scheduler.register(block, liveness)
            blocks.append(block)
            remaining -= chunk
        self.stats.writes += 1
        self.stats.bytes_written += size_bytes
        self._obs_writes.add()
        self._obs_bytes_written.add(size_bytes)
        return blocks

    def read(self, blocks: List[Block], now: float) -> Tuple[float, float]:
        """Sequential read of a block list; returns (latency_s, energy_j).

        Latency is the sum over blocks (one sequential stream); raises if
        any block has expired — the caller should have refreshed or
        recomputed.
        """
        latency = 0.0
        energy = 0.0
        for block in blocks:
            result = self.device.read_block(block, now)
            latency += result.latency_s
            energy += result.energy_j
            self.stats.bytes_read += block.size_bytes
            self._obs_bytes_read.add(block.size_bytes)
        self.stats.reads += 1
        self._obs_reads.add()
        self._obs_read_latency.observe(latency)
        return latency, energy

    def read_with_recovery(
        self,
        blocks: List[Block],
        now: float,
        rng: Optional[np.random.Generator] = None,
    ) -> RecoveredRead:
        """Read a block list through the ECC + recovery pipeline.

        Per block: read, count the raw errors the worst codeword sees
        (:meth:`_codeword_bit_errors`), decode against
        :attr:`ecc_code`.  A DETECTED (uncorrectable) outcome
        walks the mitigation ladder of :class:`RecoveryConfig` —
        retry-with-backoff, then refresh escalation — before being
        reported as data loss.  A bank failure loses the block (and
        remaps the zone when enabled).  ``rng`` feeds only the
        miscorrection draw; pass the run's seeded generator.
        """
        if self.ecc_code is None:
            latency, energy = self.read(blocks, now)
            return RecoveredRead(latency_s=latency, energy_j=energy)
        cfg = self.recovery
        code = self.ecc_code
        out = RecoveredRead()
        for block in blocks:
            try:
                result = self.device.read_block(block, now)
            except BankFailure:
                self._lose_block(block, out)
                if cfg.enabled and cfg.remap_on_bank_failure:
                    self._remap_zone(block.zone_id)
                continue
            out.latency_s += result.latency_s
            out.energy_j += result.energy_j
            self.stats.bytes_read += block.size_bytes
            self._obs_bytes_read.add(block.size_bytes)
            raw = self._codeword_bit_errors(block, now)
            outcome = code.decode_outcome(raw, rng)
            if outcome is DecodeOutcome.MISCORRECTED:
                self.stats.silent_corruptions += 1
                self._obs_miscorrections.add()
                out.miscorrected_blocks += 1
                continue
            if outcome is DecodeOutcome.CORRECTED:
                continue
            # DETECTED: uncorrectable — walk the mitigation ladder.
            if not cfg.enabled:
                self._lose_block(block, out)
                continue
            recovered = False
            backoff = cfg.retry_backoff_s
            for _attempt in range(cfg.max_read_retries):
                self.stats.read_retries += 1
                self._obs_read_retries.add()
                # Transient noise is gone on the re-read; decay is not.
                self.device.clear_transient_errors(block)
                retry = self.device.read_block(block, now)
                out.latency_s += backoff + retry.latency_s
                out.energy_j += retry.energy_j
                backoff *= 2.0
                raw = self._codeword_bit_errors(block, now)
                if code.decode_outcome(raw, rng) is not DecodeOutcome.DETECTED:
                    recovered = True
                    break
            if not recovered and cfg.refresh_escalation:
                # Restore from the durable upstream copy by rewriting in
                # place (costs a block write; resets age and deadline).
                refresh = self.device.refresh_block(block, now)
                out.latency_s += refresh.latency_s
                out.energy_j += refresh.energy_j
                self.stats.escalated_refreshes += 1
                self._obs_escalations.add()
                recovered = True
            if recovered:
                self.stats.blocks_recovered += 1
                self._obs_recovered.add()
            else:
                self._lose_block(block, out)
        self.stats.reads += 1
        self._obs_reads.add()
        self._obs_read_latency.observe(out.latency_s)
        return out

    def _codeword_bit_errors(self, block: Block, now: float) -> int:
        """Raw errors the *worst* codeword of the block sees: mean-field
        retention decay at codeword scale, plus any injected transient
        burst — bursts are spatially local, so the whole burst lands
        inside one codeword (the one that decides recoverability)."""
        code = self.ecc_code
        decay = int(round(self.device.rber_of(block, now) * code.n))
        return decay + self.device.injected_bit_errors(block)

    # ------------------------------------------------------------------
    # Read leaps (see repro.faults.experiment.play_rounds)
    # ------------------------------------------------------------------
    def _clears(self, blocks: List[Block], now: float) -> bool:
        """True if every block surely decodes CORRECTED at ``now`` and at
        any earlier time with the same injected errors.

        The decay count ``x`` (the scalar :meth:`_codeword_bit_errors`
        rounds) must stay ``LEAP_MARGIN`` below the rounding edge
        ``t - injected + 0.5``, which also gives ``round(x) + injected
        <= t``.  Decay never falls with age, and the margin absorbs the
        sub-ulp error of libm's ``expm1``, so earlier reads round no
        higher.
        """
        code = self.ecc_code
        for block in blocks:
            edge = code.t - self.device.injected_bit_errors(block) + 0.5
            if self.device.rber_of(block, now) * code.n > edge - LEAP_MARGIN:
                return False
        return True

    def clear_rounds(self, blocks: List[Block], times: Sequence[float]) -> int:
        """How many leading read times of ``times`` (ascending) every
        block of ``blocks`` surely decodes CORRECTED at, with no fault
        event or refresh decision in between.

        Checks the last time first; if it fails, bisects for the last
        time that clears (a retention-violated block can cross ``t``
        with no event).  Without an ECC code every read is clean.
        """
        if not times or self.ecc_code is None:
            return len(times)
        if self._clears(blocks, times[-1]):
            return len(times)
        lo, hi = 0, len(times) - 1  # times[:lo] clear, times[hi] fails
        while lo < hi:
            mid = (lo + hi) // 2
            if self._clears(blocks, times[mid]):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def account_clean_reads(
        self, blocks: List[Block], rounds: int, latency_s: float
    ) -> None:
        """Account ``rounds`` more :meth:`read_with_recovery` calls over
        ``blocks`` in which every block decodes CORRECTED, each taking
        ``latency_s`` (one such call's total).

        Integer tallies multiply; the device folds its read energy block
        by block, round by round
        (:meth:`~repro.core.mrm.MRMDevice.read_block_passes`); the
        latency histogram takes ``rounds`` equal samples through
        ``observe_many``, which equals repeated ``observe``.
        """
        self.device.read_block_passes(blocks, rounds)
        size_bytes = rounds * sum(block.size_bytes for block in blocks)
        self.stats.bytes_read += size_bytes
        self._obs_bytes_read.add(size_bytes)
        self.stats.reads += rounds
        self._obs_reads.add(rounds)
        self._obs_read_latency.observe_many(np.full(rounds, latency_s))

    def _lose_block(self, block: Block, out: RecoveredRead) -> None:
        out.lost_blocks.append(block)
        self.stats.data_loss_blocks += 1
        self._obs_data_loss.add()
        self.scheduler.deregister(block)
        if block.state is BlockState.VALID:
            self.device.mark_expired(block)

    def _remap_zone(self, zone_id: int) -> None:
        """Retire a failed zone from allocation (close it if open)."""
        self._open_zones = {
            bucket: zone
            for bucket, zone in self._open_zones.items()
            if zone.zone_id != zone_id
        }
        self.stats.remapped_zones += 1
        self._obs_remaps.add()

    def handle_bank_failure(
        self, zone_id: int, lost_blocks: List[Block]
    ) -> None:
        """React to a bank failure already applied to the device via
        :meth:`~repro.core.mrm.MRMDevice.fail_bank` (which returns the
        ``lost_blocks``): deregister the lost data from the refresh
        scheduler, account the loss, and (when enabled) remap the zone
        out of allocation so new writes stop landing on dead cells."""
        for block in lost_blocks:
            self.scheduler.deregister(block)
        self.stats.data_loss_blocks += len(lost_blocks)
        self._obs_data_loss.add(len(lost_blocks))
        if self.recovery.enabled and self.recovery.remap_on_bank_failure:
            self._remap_zone(zone_id)

    def delete(self, blocks: List[Block]) -> None:
        """Caller declares the data dead; zones reclaim on next tick."""
        for block in blocks:
            self.scheduler.deregister(block)
            self.device.mark_expired(block)
        self.stats.deletes += 1
        self._obs_deletes.add()

    # ------------------------------------------------------------------
    # Control plane clock
    # ------------------------------------------------------------------
    def tick(self, now: float) -> Dict[str, int]:
        """Advance the control plane to ``now``: run due refresh
        decisions, collect migration requests, reclaim dead zones.

        Returns a summary dict of action counts for this tick.
        """
        decisions = self.scheduler.run_until(now)
        migrate = [b for b, d in decisions if d is RefreshDecision.MIGRATE]
        self.migration_queue.extend(migrate)
        self.stats.migrations_requested += len(migrate)
        self._obs_migrations.add(len(migrate))
        reclaimed = self._reclaim_dead_zones()
        refreshed = sum(
            1 for _b, d in decisions if d is RefreshDecision.REFRESH
        )
        expired = sum(1 for _b, d in decisions if d is RefreshDecision.EXPIRE)
        self._obs_refreshes.add(refreshed)
        self._obs_expiries.add(expired)
        return {
            "refreshed": refreshed,
            "expired": expired,
            "migrated": len(migrate),
            "zones_reclaimed": reclaimed,
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def occupancy(self) -> float:
        return self.device.space.occupancy()

    def free_zones(self) -> int:
        return len(self.device.space.empty_zones())

    @property
    def housekeeping_energy_j(self) -> float:
        """Energy spent on refreshes (the only housekeeping MRM has)."""
        return self.scheduler.stats.refresh_energy_j
