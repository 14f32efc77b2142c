"""Applying fault schedules to the stack.

Two drivers, matching the two experiment families:

- :class:`ControllerFaultInjector` — applies device-level events
  (retention violations, bursts, bank/device failures) to one
  :class:`~repro.core.controller.MRMController` and its device.  It is
  clockless like the controller: the harness calls
  :meth:`~ControllerFaultInjector.apply_until` with the current time.
- :func:`spawn_kv_faults` — a simulation process that fires KV-loss
  events into a set of :class:`~repro.inference.engine.InferenceEngine`
  instances at their scheduled times.

Both record every applied event and its outcome in a :class:`FaultLog`;
``FaultLog.fingerprint()`` digests (time, seq, kind, outcome) so tests
can assert that the *effects*, not just the schedule, are bit-identical
across serial and parallel execution.

Victim selection is pure arithmetic on each event's frozen
``magnitude`` — sorted candidate lists indexed by ``int(magnitude *
len)`` — so the injector consumes no randomness of its own.  The only
RNG in the pipeline is the miscorrection draw inside the ECC decode
path, fed by the harness's seeded generator.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Generator, List, Optional, Sequence, Tuple

from repro.core.controller import MRMController
from repro.core.zones import BlockState
from repro.faults.events import FaultEvent, FaultKind
from repro.faults.schedule import FaultSchedule
from repro.inference.engine import InferenceEngine
from repro.sim import Process, Simulator, Timeout


@dataclass
class FaultLog:
    """What the injector did: one entry per applied event.

    When constructed with an observability registry, every recorded
    entry also bumps a ``faults.applied_total{kind=...,outcome=...}``
    counter — the per-kind/per-outcome breakdown the log itself only
    yields by scanning.
    """

    entries: List[dict] = field(default_factory=list)
    obs: object = None

    def record(self, event: FaultEvent, outcome: str, detail: int = 0) -> None:
        self.entries.append(
            {
                "time_s": event.time_s,
                "seq": event.seq,
                "kind": event.kind.value,
                "outcome": outcome,
                "detail": detail,
            }
        )
        if self.obs is not None and self.obs.enabled:
            self.obs.counter(
                "faults.applied_total", kind=event.kind.value, outcome=outcome
            ).add()

    def fingerprint(self) -> str:
        """Digest of the applied timeline *and its effects*."""
        payload = json.dumps(
            self.entries, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _pick(magnitude: float, count: int) -> int:
    """Map a frozen uniform draw onto an index in ``[0, count)``."""
    index = int(magnitude * count)
    # magnitude < 1.0 by construction, but guard the boundary anyway.
    return min(index, count - 1)


#: Kinds the controller injector must leave to the serving layer.
_SERVING_KINDS = (
    FaultKind.KV_LOSS,
    FaultKind.ENGINE_CRASH,
    FaultKind.DOMAIN_POWER_LOSS,
)


class ControllerFaultInjector:
    """Applies a device-level fault schedule to one controller.

    Parameters
    ----------
    controller:
        The control plane under test, with an ECC code (its
        :attr:`recovery` flag decides mitigated vs baseline behaviour).
        Burst sizes are ``1 + magnitude * burst_scale_bits`` raw bit
        errors, where ``burst_scale_bits`` is ``4 * (t + 1)`` for the
        code's correction capability ``t``, so bursts straddle the
        correctable/uncorrectable boundary.
    schedule:
        The frozen fault timeline (KV-loss events are ignored here —
        they belong to the serving layer).
    """

    def __init__(
        self,
        controller: MRMController,
        schedule: FaultSchedule,
        obs=None,
    ) -> None:
        self.controller = controller
        self.schedule = schedule
        self.log = FaultLog(obs=obs)
        self.burst_scale_bits = 4 * (controller.ecc_code.t + 1)
        self._cursor = 0

    def next_event_time(self) -> Optional[float]:
        """Time of the next event :meth:`apply_until` would apply, or
        None.  Serving-layer kinds are skipped, as they are there."""
        events = self.schedule.events
        for index in range(self._cursor, len(events)):
            if events[index].kind not in _SERVING_KINDS:
                return events[index].time_s
        return None

    def apply_until(self, now: float) -> int:
        """Apply every not-yet-applied event with ``time_s <= now``;
        returns how many fired."""
        fired = 0
        events = self.schedule.events
        while self._cursor < len(events) and events[self._cursor].time_s <= now:
            event = events[self._cursor]
            self._cursor += 1
            if event.kind in _SERVING_KINDS:
                continue  # serving-layer event; not ours
            self._apply(event)
            fired += 1
        return fired

    # ------------------------------------------------------------------
    # Per-kind handlers (deterministic; no RNG)
    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        device = self.controller.device
        if device.is_failed:
            self.log.record(event, "device-already-dead")
            return
        if event.kind is FaultKind.RETENTION_VIOLATION:
            self._apply_retention_violation(event)
        elif event.kind is FaultKind.BIT_ERROR_BURST:
            self._apply_burst(event)
        elif event.kind is FaultKind.BANK_FAILURE:
            self._apply_bank_failure(event)
        elif event.kind is FaultKind.DEVICE_FAILURE:
            self._apply_device_failure(event)
        else:  # pragma: no cover - new kinds must add a handler
            raise ValueError(f"no handler for {event.kind}")

    def _victim_block(self, event: FaultEvent):
        blocks = sorted(
            self.controller.device.space.valid_blocks(),
            key=lambda b: (b.zone_id, b.index),
        )
        if not blocks:
            return None
        return blocks[_pick(event.magnitude, len(blocks))]

    def _apply_retention_violation(self, event: FaultEvent) -> None:
        block = self._victim_block(event)
        if block is None:
            self.log.record(event, "no-target")
            return
        # Severity 2x-8x spec retention, derived from the frozen
        # magnitude: the mild end stays within ECC margin (the code
        # absorbs it), the severe end is uncorrectable decay that only
        # refresh escalation can recover.
        severity = 2.0 + 6.0 * event.magnitude
        self.controller.device.inject_retention_violation(
            block, event.time_s, severity=severity
        )
        self.log.record(
            event, "aged", detail=block.zone_id * 10_000 + block.index
        )

    def _apply_burst(self, event: FaultEvent) -> None:
        block = self._victim_block(event)
        if block is None:
            self.log.record(event, "no-target")
            return
        bits = 1 + int(event.magnitude * self.burst_scale_bits)
        self.controller.device.inject_bit_errors(block, bits)
        self.log.record(event, "burst", detail=bits)

    def _apply_bank_failure(self, event: FaultEvent) -> None:
        device = self.controller.device
        candidates = sorted(
            zone.zone_id
            for zone in device.space.zones
            if zone.zone_id not in device.failed_zones
        )
        if not candidates:
            self.log.record(event, "no-target")
            return
        zone_id = candidates[_pick(event.magnitude, len(candidates))]
        lost = device.fail_bank(zone_id)
        self.controller.handle_bank_failure(zone_id, lost)
        self.log.record(event, "bank-failed", detail=len(lost))

    def _apply_device_failure(self, event: FaultEvent) -> None:
        controller = self.controller
        lost = controller.device.fail_device()
        for block in lost:
            controller.scheduler.deregister(block)
            block.state = BlockState.EXPIRED
        if controller.recovery:
            # Graceful degradation: the failure was detected as
            # progressive degradation and the control plane drained the
            # device in time — data moves instead of dying.
            controller.migration_queue.extend(lost)
            controller.stats.migrations_requested += len(lost)
            self.log.record(event, "drained", detail=len(lost))
        else:
            controller.stats.data_loss_blocks += len(lost)
            self.log.record(event, "device-lost", detail=len(lost))


def spawn_kv_faults(
    sim: Simulator,
    engines: Sequence[InferenceEngine],
    schedule: FaultSchedule,
    obs=None,
) -> Tuple[Process, FaultLog]:
    """Start the serving-layer fault process; returns ``(process, log)``.

    At each KV-loss event's time, one engine (picked from the frozen
    magnitude) loses one running request's KV pages via
    :meth:`~repro.inference.engine.InferenceEngine.inject_kv_loss`.
    Engines are addressed in sorted-name order so the mapping from
    timeline to victim never depends on construction order.
    """
    log = FaultLog(obs=obs)
    ordered = sorted(engines, key=lambda e: e.name)
    if not ordered:
        raise ValueError("need at least one engine")

    def _process() -> Generator:
        for event in schedule:
            if event.kind is not FaultKind.KV_LOSS:
                continue
            delay = event.time_s - sim.now
            if delay > 0:
                yield Timeout(delay)
            # Split the one frozen draw: integer part picks the engine,
            # the rescaled remainder picks the victim inside it.
            scaled = event.magnitude * len(ordered)
            index = min(int(scaled), len(ordered) - 1)
            inner = min(max(scaled - index, 0.0), 1.0 - 1e-12)
            outcome = ordered[index].inject_kv_loss(inner)
            log.record(event, outcome, detail=index)

    process = sim.spawn(_process(), name="kv-fault-injector")
    return process, log


def spawn_domain_faults(
    sim: Simulator,
    cluster,
    schedule: FaultSchedule,
    obs=None,
) -> Tuple[Process, FaultLog]:
    """Deliver a correlated schedule's serving events to a cluster.

    ``ENGINE_CRASH`` events (the per-member expansion of engine and
    power-domain strikes) call
    :meth:`~repro.inference.cluster.Cluster.handle_engine_crash` on the
    named engine; ``DOMAIN_POWER_LOSS`` markers are logged as the strike
    record (their members arrive as separate events at the same
    instant).  Device-level kinds in a merged schedule are ignored here,
    mirroring how :class:`ControllerFaultInjector` ignores serving
    kinds.

    The timeline is a pure function of the schedule: delivery order is
    event order, and each outcome (``crashed`` with the displaced count,
    or ``already-down``) lands in the :class:`FaultLog`, so
    ``log.fingerprint()`` captures schedule *and* effect.
    """
    log = FaultLog(obs=obs)

    def _process() -> Generator:
        for event in schedule:
            if event.kind is FaultKind.DOMAIN_POWER_LOSS:
                delay = event.time_s - sim.now
                if delay > 0:
                    yield Timeout(delay)
                log.record(event, "domain-struck")
            elif event.kind is FaultKind.ENGINE_CRASH:
                delay = event.time_s - sim.now
                if delay > 0:
                    yield Timeout(delay)
                outcome, detail = cluster.handle_engine_crash(event.device)
                log.record(event, outcome, detail=detail)

    process = sim.spawn(_process(), name="domain-fault-injector")
    return process, log
