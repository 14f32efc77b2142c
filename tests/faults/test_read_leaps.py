"""Read leaps against the per-round loop they replace.

:func:`per_round_loop` keeps the R1 controller arm's round loop as the
oracle: every round applies the fault events due, ticks the controller
and reads the whole live working set through ``read_with_recovery``.
It and :func:`~repro.faults.experiment.play_rounds`, which folds runs of
quiet rounds into read leaps, play the same drawn R1 arms and the same
hand-built cases, and everything they leave behind must be
bit-identical: the arm's result dict and obs snapshot, controller and
scheduler stats, every ``DeviceCounters`` field, each block's state,
``written_at``, ``refresh_count`` and injected errors, the fault log
fingerprint and the decode RNG's state.
"""

import math
from dataclasses import asdict
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.controller import MRMController, RecoveryConfig
from repro.core.errors import RetentionErrorModel
from repro.core.mrm import MRMConfig, MRMDevice
from repro.core.zones import Block, BlockState
from repro.ecc.bch import BCHCode
from repro.faults import experiment
from repro.faults.events import FaultEvent, FaultKind
from repro.faults.injector import ControllerFaultInjector
from repro.faults.rates import rates_for
from repro.faults.schedule import FaultSchedule, generate_schedule
from repro.obs import MetricsRegistry
from repro.units import HOUR, MiB

PLAY_ROUNDS = experiment.play_rounds

#: Drawn arms read at most this many rounds (keeps the oracle cheap).
MAX_ROUNDS = 200


def per_round_loop(controller, injector, working_set, duration_s, step_s, rng):
    """The round loop before read leaps: every round reads every live
    block."""
    device = controller.device
    demanded = 0
    delivered = 0
    read_latency_s = 0.0
    read_energy_j = 0.0
    now = 0.0
    while now < duration_s:
        now = min(now + step_s, duration_s)
        injector.apply_until(now)
        controller.tick(now)
        live = [b for b in working_set if b.state is BlockState.VALID]
        demanded += len(working_set)
        if live and not device.is_failed:
            result = controller.read_with_recovery(live, now, rng=rng)
            delivered += len(live) - len(result.lost_blocks)
            read_latency_s += result.latency_s
            read_energy_j += result.energy_j
    return {
        "blocks_demanded": demanded,
        "blocks_delivered": delivered,
        "read_latency_s": read_latency_s,
        "read_energy_j": read_energy_j,
    }


def _final_state(controller, injector, working_set, rng) -> Dict[str, Any]:
    device = controller.device
    blocks = list(device.space.iter_blocks()) + list(working_set)
    return {
        "controller": asdict(controller.stats),
        "scheduler": asdict(controller.scheduler.stats),
        "counters": asdict(device.counters),
        "device": (
            device.blocks_written,
            device.blocks_refreshed,
            device.blocks_expired,
        ),
        "blocks": [
            (
                b.zone_id,
                b.index,
                b.state,
                b.written_at,
                b.refresh_count,
                device.injected_bit_errors(b),
            )
            for b in blocks
        ],
        "migration_queue": [(b.zone_id, b.index) for b in controller.migration_queue],
        "log": injector.log.fingerprint(),
        "obs": controller.obs.snapshot() if controller.obs.enabled else None,
        "rng": rng.bit_generator.state,
    }


def _play(loop, controller, injector, working_set, duration_s, step_s, rng):
    """Run ``loop``; return (totals and final state, read passes made)."""
    calls = [0]
    read_with_recovery = controller.read_with_recovery

    def counted(*args, **kwargs):
        calls[0] += 1
        return read_with_recovery(*args, **kwargs)

    controller.read_with_recovery = counted
    totals = loop(controller, injector, working_set, duration_s, step_s, rng)
    state = _final_state(controller, injector, working_set, rng)
    state["totals"] = totals
    return state, calls[0]


# ----------------------------------------------------------------------
# Drawn R1 arms, through _controller_arm
# ----------------------------------------------------------------------
def _arm(loop, case: Dict[str, Any]) -> Tuple[Dict[str, Any], int]:
    """One R1 arm with its round loop swapped for ``loop``."""
    seen = {}

    def spy(controller, injector, working_set, duration_s, step_s, rng):
        seen["state"], seen["reads"] = _play(
            loop, controller, injector, working_set, duration_s, step_s, rng
        )
        return seen["state"]["totals"]

    seed = np.random.SeedSequence(case["seed"])
    schedule_seed, decode_seed = seed.spawn(2)
    rates = rates_for(
        experiment.DEFAULT_PROFILE,
        capacity_bytes=64 * MiB,
        rate_multiplier=case["multiplier"],
    )
    schedule = generate_schedule(rates, case["duration_s"], schedule_seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "play_rounds", spy)
        result = experiment._controller_arm(
            schedule,
            case["mitigated"],
            decode_seed,
            case["duration_s"],
            case["step_s"],
            case["observe"],
        )
    return {"result": result, **seen["state"]}, seen["reads"]


@st.composite
def arm_cases(draw):
    duration_s = draw(st.floats(600.0, 8 * HOUR))
    return {
        "multiplier": draw(
            st.one_of(
                st.just(0.0),
                st.floats(2.0, math.log10(2e5)).map(lambda e: 10.0 ** e),
            )
        ),
        "duration_s": duration_s,
        "step_s": draw(st.floats(max(1.0, duration_s / MAX_ROUNDS), 900.0)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "mitigated": draw(st.booleans()),
        "observe": draw(st.booleans()),
    }


class TestReadLeapsMatchPerRoundLoop:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(arm_cases())
    # Integer steps that do not divide the horizon, then one that does.
    @example({"multiplier": 2e5, "duration_s": 3600.0, "step_s": 23.0,
              "seed": 1, "mitigated": True, "observe": True})
    @example({"multiplier": 16000.0, "duration_s": 8 * HOUR, "step_s": 900.0,
              "seed": 7, "mitigated": False, "observe": False})
    @example({"multiplier": 1e5, "duration_s": 7200.0, "step_s": 60.0,
              "seed": 3, "mitigated": False, "observe": True})
    def test_drawn_arms_bit_identical(self, case):
        expected, oracle_reads = _arm(per_round_loop, case)
        actual, reads = _arm(PLAY_ROUNDS, case)
        assert actual == expected
        assert reads <= oracle_reads


# ----------------------------------------------------------------------
# Hand-built cases, driving play_rounds directly
# ----------------------------------------------------------------------
DURATION_S = 2 * HOUR
STEP_S = 60.0  # round times are whole seconds: events can land on them


def _uniform(retention_s: float):
    """40 one-MiB blocks at one retention, always live."""

    def build(controller: MRMController) -> List[Block]:
        blocks = []
        for _ in range(40):
            blocks.extend(
                controller.write(
                    MiB, retention_s, 0.0, liveness=lambda _b, _t: True
                )
            )
        return blocks

    return build


def _decisions(controller: MRMController) -> List[Block]:
    """Short retention classes whose refresh decisions fall inside what
    would otherwise be one leap.

    - 6 blocks at 900 s, always live: REFRESH at 810 s, then MIGRATE at
      1,620 s (the threshold sits between one and two writes' damage).
      A migrated block stays valid and unrefreshed, so its decay later
      crosses ``t`` with no event.
    - 8 blocks at 1,200 s, live until 1,500 s: REFRESH at 1,080 s, then
      EXPIRE at 2,160 s; their full zone is then reclaimed.
    - 26 blocks at 10 h: no decision in the run.
    """
    controller.scheduler.wear_migration_threshold = 1.5e-16
    blocks = []
    for count, retention_s, liveness in (
        (6, 900.0, lambda _b, _t: True),
        (8, 1200.0, lambda _b, t: t < 1500.0),
        (26, 10 * HOUR, lambda _b, _t: True),
    ):
        for _ in range(count):
            blocks.extend(
                controller.write(MiB, retention_s, 0.0, liveness=liveness)
            )
    return blocks


def _events(*events: Tuple[float, FaultKind, float]) -> Tuple[FaultEvent, ...]:
    return tuple(
        FaultEvent(time_s, kind, "rram-potential", magnitude, seq)
        for seq, (time_s, kind, magnitude) in enumerate(events)
    )


CASES = {
    "refresh-expire-migrate": (_decisions, ()),
    # 1 + int(0.2 * 36) = 8 = t burst bits, on a round time; decay then
    # rounds up to 1 at 2,220 s with no further event.
    "burst-at-t": (
        _uniform(4 * HOUR),
        _events((600.0, FaultKind.BIT_ERROR_BURST, 0.2)),
    ),
    # Severity 2.56: decay reads 8.40 after the violation and crosses
    # 8.5 eight rounds later (1,740 s), with no event.
    "violation-crosses-t": (
        _uniform(4 * HOUR),
        _events((1230.0, FaultKind.RETENTION_VIOLATION, 0.0938)),
    ),
    # A bank on a round time, then the whole device; a later event
    # finds the device dead.
    "bank-then-device": (
        _uniform(4 * HOUR),
        _events(
            (1800.0, FaultKind.BANK_FAILURE, 0.3),
            (4530.0, FaultKind.DEVICE_FAILURE, 0.5),
            (6000.0, FaultKind.BIT_ERROR_BURST, 0.5),
        ),
    ),
}


def _direct(loop, name: str, mitigated: bool):
    build, events = CASES[name]
    obs = MetricsRegistry()
    device = MRMDevice(
        MRMConfig(capacity_bytes=64 * MiB, block_bytes=MiB, blocks_per_zone=8)
    )
    controller = MRMController(
        device,
        ecc_code=BCHCode(n=32768, k=32648, t=8),
        recovery=RecoveryConfig(enabled=mitigated),
        obs=obs,
    )
    injector = ControllerFaultInjector(
        controller, FaultSchedule(events, DURATION_S), obs=obs
    )
    working_set = build(controller)
    rng = np.random.default_rng(11)
    return _play(
        loop, controller, injector, working_set, DURATION_S, STEP_S, rng
    )


class TestHandBuiltCases:
    @pytest.mark.parametrize("mitigated", [False, True])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bit_identical(self, name, mitigated):
        expected, oracle_reads = _direct(per_round_loop, name, mitigated)
        actual, reads = _direct(PLAY_ROUNDS, name, mitigated)
        assert actual == expected
        assert reads < oracle_reads / 4, (reads, oracle_reads)

    def test_cases_are_eventful(self):
        """The cases reach what they are named for."""
        decisions, _ = _direct(PLAY_ROUNDS, "refresh-expire-migrate", True)
        scheduler = decisions["scheduler"]
        assert scheduler["refreshed"] and scheduler["expired"]
        assert scheduler["migrated"] == 6
        assert decisions["controller"]["zones_reclaimed"] >= 1
        assert decisions["controller"]["escalated_refreshes"] >= 6
        burst, _ = _direct(PLAY_ROUNDS, "burst-at-t", True)
        assert burst["controller"]["read_retries"] == 1
        violation, _ = _direct(PLAY_ROUNDS, "violation-crosses-t", False)
        assert violation["controller"]["data_loss_blocks"] == 1
        failures, _ = _direct(PLAY_ROUNDS, "bank-then-device", True)
        assert failures["controller"]["remapped_zones"] == 1
        assert failures["controller"]["migrations_requested"] > 0


# ----------------------------------------------------------------------
# Scaling guard
# ----------------------------------------------------------------------
class TestScalingGuard:
    """A quiet run evaluates decay about as often however often it
    reads: a leap checks each block once, not once per round."""

    @staticmethod
    def _rber_calls(step_s: float) -> int:
        calls = [0]
        rber = RetentionErrorModel.rber

        def counted(self, age_s, spec_retention_s):
            calls[0] += 1
            return rber(self, age_s, spec_retention_s)

        point = {"rate_multiplier": 0.0, "duration_s": 8 * HOUR, "step_s": step_s}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RetentionErrorModel, "rber", counted)
            experiment.controller_point(point, 1)
        return calls[0]

    def test_decay_evaluations_flat_in_round_count(self):
        # 48 rounds per arm, then 2,880.
        coarse, fine = self._rber_calls(600.0), self._rber_calls(10.0)
        assert fine <= 1.5 * coarse, (coarse, fine)
