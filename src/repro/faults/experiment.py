"""The fault experiments: availability / goodput vs fault rate.

Two experiment families, both built as *pure point functions* so they
run under :func:`repro.parallel.run_sweep` — serial and parallel
executions are bit-identical, fault timeline included:

- :func:`controller_point` — one MRM device + controller serving a
  fixed read-mostly working set while device-level faults (retention
  violations, bit-error bursts, bank/device failures) fire from a
  seeded schedule.  Measures block-delivery availability and the cost
  of the mitigation ladder.
- :func:`serving_point` — a small inference cluster while KV-cache-loss
  faults strike running requests.  Measures request availability and
  goodput (throughput net of recomputed tokens).
- :func:`chaos_point` — a cluster under *correlated* domain faults
  (engine crashes and power-domain losses expanded from one
  :func:`~repro.faults.schedule.generate_correlated_schedule`
  timeline), baseline vs the full graceful-degradation stack
  (:class:`~repro.inference.resilience.ResiliencePolicy`: deadlines,
  retries, hedging, crash re-dispatch + KV recompute).  Measures
  delivered goodput, SLO attainment, shed/retry/hedge counts and
  time-to-recovery vs domain strike rate.

Each point draws **one** fault schedule and plays it through two arms —
``baseline`` (mitigations off: detected errors are immediate data loss,
KV losses immediately fail requests) and ``mitigated`` (the default
recovery configs) — so the comparison is on the *identical* timeline,
not merely identically-distributed ones.  The headline claim the
benchmarks assert: at every positive fault rate, mitigation improves
availability on the same faults.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.controller import MRMController
from repro.core.mrm import MRMConfig, MRMDevice
from repro.core.zones import Block, BlockState
from repro.ecc.bch import BCHCode
from repro.faults.domains import cluster_topology
from repro.faults.events import FaultKind
from repro.faults.injector import (
    ControllerFaultInjector,
    spawn_domain_faults,
    spawn_kv_faults,
)
from repro.faults.rates import rates_for
from repro.faults.schedule import (
    FaultSchedule,
    generate_correlated_schedule,
    generate_schedule,
)
from repro.inference.accelerator import H100_80G
from repro.inference.cluster import Cluster, tensor_parallel_group
from repro.inference.resilience import ResiliencePolicy
from repro.obs import MetricsRegistry
from repro.parallel.sweep import run_sweep
from repro.sim import Simulator
from repro.sim.stats import fold_sum
from repro.units import HOUR, MiB
from repro.workload.model import LLAMA2_13B
from repro.workload.requests import InferenceRequest, SLAClass

SeedLike = Union[int, np.random.SeedSequence]

#: Catalog profile whose fault rates drive the controller experiment.
DEFAULT_PROFILE = "rram-potential"

#: Rate multipliers for the device-level sweep.  Base catalog rates are
#: datasheet-scale (events per GiB-hour on a sub-GiB device), so the
#: sweep accelerates them to get meaningful counts in a two-hour run.
CONTROLLER_MULTIPLIERS = (0.0, 1000.0, 4000.0, 16000.0)
CONTROLLER_MULTIPLIERS_TINY = (0.0, 4000.0)

#: KV-loss events per engine-hour for the serving sweep.
SERVING_KV_RATES_PER_HOUR = (0.0, 360.0, 1440.0)
SERVING_KV_RATES_PER_HOUR_TINY = (0.0, 1440.0)

#: Per-engine-domain strikes per hour for the chaos sweep (power-domain
#: strikes run at a quarter of this — shared feeds fail rarer than
#: single engines, but take several engines down at once).
CHAOS_STRIKE_RATES_PER_HOUR = (0.0, 120.0, 360.0)
CHAOS_STRIKE_RATES_PER_HOUR_TINY = (0.0, 240.0)

#: The mitigated arm's graceful-degradation knobs.  Queue depth stays
#: unbounded here so the struck-point comparison isolates crash
#: recovery; shedding determinism is covered by the unit tests.
CHAOS_POLICY = ResiliencePolicy(
    deadline_s=10.0,
    max_retries=2,
    retry_backoff_s=0.05,
    hedge_delay_s=1.0,
    max_queue_depth=0,
    restart_delay_s=0.5,
)


def _seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def controller_grid(tiny: bool = False) -> List[Dict[str, Any]]:
    """One point per fault-rate multiplier for :func:`controller_point`."""
    multipliers = (
        CONTROLLER_MULTIPLIERS_TINY if tiny else CONTROLLER_MULTIPLIERS
    )
    return [{"rate_multiplier": multiplier} for multiplier in multipliers]


def serving_grid(tiny: bool = False) -> List[Dict[str, Any]]:
    """One point per KV-loss rate for :func:`serving_point`."""
    rates = (
        SERVING_KV_RATES_PER_HOUR_TINY if tiny else SERVING_KV_RATES_PER_HOUR
    )
    return [{"kv_loss_per_hour": rate} for rate in rates]


def chaos_grid(tiny: bool = False) -> List[Dict[str, Any]]:
    """One point per domain strike rate for :func:`chaos_point`."""
    rates = (
        CHAOS_STRIKE_RATES_PER_HOUR_TINY if tiny else CHAOS_STRIKE_RATES_PER_HOUR
    )
    return [{"strike_rate_per_hour": rate} for rate in rates]


def _round_times(
    now: float, step_s: float, duration_s: float, stop: float
) -> List[float]:
    """The round times after ``now`` strictly before ``stop``, by the
    round loop's own arithmetic."""
    times = []
    while now < duration_s:
        now = min(now + step_s, duration_s)
        if now >= stop:
            break
        times.append(now)
    return times


def play_rounds(
    controller: MRMController,
    injector: ControllerFaultInjector,
    working_set: List[Block],
    duration_s: float,
    step_s: float,
    rng: np.random.Generator,
) -> Dict[str, Any]:
    """Read ``working_set`` every ``step_s`` until ``duration_s`` while
    ``injector`` plays its schedule.

    A *round* applies the fault events due, ticks the controller, then
    reads the live blocks through
    :meth:`~repro.core.controller.MRMController.read_with_recovery`.
    Every round demands the whole working set.  After a round that read
    nothing, or in which every block decoded CORRECTED, the loop *leaps*:
    it accounts the run of quiet rounds that follows in one pass and
    resumes at the first round that may differ.  A quiet round has no
    fault event or refresh decision due, and every live block surely
    decodes CORRECTED in it
    (:meth:`~repro.core.controller.MRMController.clear_rounds`); it
    changes no state and repeats the previous round's accounting
    (:meth:`~repro.core.controller.MRMController.account_clean_reads`).
    The totals, controller and device state, obs metrics and RNG stream
    equal the per-round loop's bit for bit (``docs/PERFORMANCE.md``,
    "Read leaps").

    Returns ``blocks_demanded``, ``blocks_delivered``,
    ``read_latency_s`` and ``read_energy_j``.
    """
    device = controller.device
    stats = controller.stats
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
        read = None
        if live and not device.is_failed:
            recovered = stats.blocks_recovered
            read = controller.read_with_recovery(live, now, rng=rng)
            delivered += len(live) - len(read.lost_blocks)
            read_latency_s += read.latency_s
            read_energy_j += read.energy_j
            # Every DETECTED block ends recovered or lost.
            if (
                read.lost_blocks
                or read.miscorrected_blocks
                or stats.blocks_recovered != recovered
            ):
                continue
        due = (
            injector.next_event_time(),
            controller.scheduler.next_decision_time(),
        )
        stop = min((when for when in due if when is not None), default=math.inf)
        times = _round_times(now, step_s, duration_s, stop)
        if read is not None:
            times = times[: controller.clear_rounds(live, times)]
        if not times:
            continue
        rounds = len(times)
        demanded += rounds * len(working_set)
        if read is not None:
            controller.account_clean_reads(live, rounds, read.latency_s)
            delivered += rounds * len(live)
            read_latency_s = fold_sum(
                read_latency_s, np.full(rounds, read.latency_s)
            )
            read_energy_j = fold_sum(
                read_energy_j, np.full(rounds, read.energy_j)
            )
        now = times[-1]
    return {
        "blocks_demanded": demanded,
        "blocks_delivered": delivered,
        "read_latency_s": read_latency_s,
        "read_energy_j": read_energy_j,
    }


def _controller_arm(
    schedule: FaultSchedule,
    mitigated: bool,
    decode_seed: np.random.SeedSequence,
    duration_s: float,
    step_s: float,
    observe: bool = False,
) -> Dict[str, Any]:
    """Play one schedule through one controller configuration.

    A 64 MiB device holds a 40-block working set (retention set past
    the experiment horizon, liveness "still needed"), read in full every
    ``step_s`` while the fault schedule plays (:func:`play_rounds`).
    Availability counts every demanded block every round: a block lost
    at t stays undelivered for the rest of the run — data loss has a
    lasting cost, exactly what graceful degradation buys back.  Rounds
    in which nothing happens are folded into read leaps, with results
    identical to reading every round.
    """
    rng = np.random.default_rng(decode_seed)
    # Per-arm registry (when observing): a pure function of the arm's
    # inputs, so sweep snapshots stay serial-vs-parallel identical.
    obs = MetricsRegistry() if observe else None
    device = MRMDevice(
        MRMConfig(
            capacity_bytes=64 * MiB,
            block_bytes=1 * MiB,
            blocks_per_zone=8,
        )
    )
    controller = MRMController(
        device,
        ecc_code=BCHCode(n=32768, k=32648, t=8),
        recovery=mitigated,
        obs=obs,
    )
    injector = ControllerFaultInjector(controller, schedule, obs=obs)

    retention_s = 2 * duration_s  # outlives the run: no planned expiry
    working_set = []
    for _ in range(40):
        working_set.extend(
            controller.write(
                1 * MiB, retention_s, 0.0,
                liveness=lambda _block, _now: True,
            )
        )
    totals = play_rounds(
        controller, injector, working_set, duration_s, step_s, rng
    )

    demanded = totals["blocks_demanded"]
    stats = controller.stats
    result = {
        "mitigated": mitigated,
        "log_fingerprint": injector.log.fingerprint(),
        "availability": (
            totals["blocks_delivered"] / demanded if demanded else 1.0
        ),
        "blocks_demanded": demanded,
        "blocks_delivered": totals["blocks_delivered"],
        "data_loss_blocks": stats.data_loss_blocks,
        "blocks_recovered": stats.blocks_recovered,
        "read_retries": stats.read_retries,
        "escalated_refreshes": stats.escalated_refreshes,
        "silent_corruptions": stats.silent_corruptions,
        "remapped_zones": stats.remapped_zones,
        "read_latency_s": totals["read_latency_s"],
        "read_energy_j": totals["read_energy_j"],
    }
    if obs is not None:
        result["obs"] = obs.snapshot()
    return result


def controller_point(
    point: Dict[str, Any], seed: SeedLike
) -> Dict[str, Any]:
    """One device-level availability measurement: both arms, one timeline."""
    rate_multiplier = float(point["rate_multiplier"])
    duration_s = float(point.get("duration_s", 2 * HOUR))
    step_s = float(point.get("step_s", 120.0))
    observe = bool(point.get("observe", False))

    root = _seed_sequence(seed)
    schedule_seed, baseline_seed, mitigated_seed = root.spawn(3)
    rates = rates_for(
        point.get("profile", DEFAULT_PROFILE),
        capacity_bytes=64 * MiB,
        rate_multiplier=rate_multiplier,
    )
    schedule = generate_schedule(rates, duration_s, schedule_seed)
    return {
        "rate_multiplier": rate_multiplier,
        "fault_events": len(schedule),
        "timeline_fingerprint": schedule.fingerprint(),
        "baseline": _controller_arm(
            schedule, False, baseline_seed, duration_s, step_s, observe
        ),
        "mitigated": _controller_arm(
            schedule, True, mitigated_seed, duration_s, step_s, observe
        ),
    }


def _serving_arm(
    schedule: FaultSchedule,
    mitigated: bool,
    num_requests: int,
    observe: bool = False,
) -> Dict[str, Any]:
    """Serve the fixed request stream through one fault timeline.

    The request stream is deterministic (fixed arrivals and token
    counts) so the *only* randomness is the fault timeline — both arms
    see the identical stream and identical faults.
    """
    obs = MetricsRegistry() if observe else None
    sim = Simulator(obs=obs)
    cluster = Cluster(
        sim,
        tensor_parallel_group(H100_80G, 2),
        LLAMA2_13B,
        num_engines=2,
        max_batch_size=8,
        kv_recovery=mitigated,
        obs=obs,
    )
    _process, log = spawn_kv_faults(sim, cluster.engines, schedule, obs=obs)
    requests = [
        InferenceRequest(
            arrival_time=0.25 * i, prompt_tokens=256, output_tokens=32
        )
        for i in range(num_requests)
    ]
    report = cluster.run(requests)
    result = {
        "mitigated": mitigated,
        "log_fingerprint": log.fingerprint(),
        "availability": report.availability,
        "goodput_tokens_per_s": report.goodput_tokens_per_s,
        "throughput_tokens_per_s": report.throughput_tokens_per_s,
        "requests_completed": report.requests_completed,
        "requests_failed": report.requests_failed,
        "kv_recoveries": report.kv_recoveries,
        "kv_recompute_tokens": report.kv_recompute_tokens,
    }
    if obs is not None:
        result["obs"] = obs.snapshot()
    return result


def serving_point(point: Dict[str, Any], seed: SeedLike) -> Dict[str, Any]:
    """One serving-layer availability/goodput measurement: both arms."""
    kv_loss_per_hour = float(point["kv_loss_per_hour"])
    horizon_s = float(point.get("horizon_s", 30.0))
    num_requests = int(point.get("num_requests", 60))
    observe = bool(point.get("observe", False))

    schedule = generate_schedule(
        {FaultKind.KV_LOSS: kv_loss_per_hour / HOUR},
        horizon_s,
        seed,
        device="cluster",
    )
    return {
        "kv_loss_per_hour": kv_loss_per_hour,
        "fault_events": len(schedule),
        "timeline_fingerprint": schedule.fingerprint(),
        "baseline": _serving_arm(schedule, False, num_requests, observe),
        "mitigated": _serving_arm(schedule, True, num_requests, observe),
    }


def _chaos_arm(
    schedule: FaultSchedule,
    mitigated: bool,
    num_engines: int,
    num_requests: int,
    horizon_s: float,
    output_tokens: int = 32,
    arrival_period_s: float = 0.25,
    observe: bool = False,
) -> Dict[str, Any]:
    """Serve the fixed stream through one correlated fault timeline.

    The mitigated arm runs the full stack — :data:`CHAOS_POLICY`
    dispatching (deadlines, retries, hedging, crash re-dispatch) plus
    KV recompute-from-prefix; the baseline arm routes around dead
    engines (plain JSQ liveness) but recovers nothing: a crash fails
    every resident and queued request.

    Goodput uses the shared schedule horizon as the denominator so the
    arms are compared over the identical wall-clock window, independent
    of how long each one's event queue takes to drain.
    """
    obs = MetricsRegistry() if observe else None
    sim = Simulator(obs=obs)
    cluster = Cluster(
        sim,
        tensor_parallel_group(H100_80G, 2),
        LLAMA2_13B,
        num_engines=num_engines,
        max_batch_size=8,
        kv_recovery=mitigated,
        resilience=CHAOS_POLICY if mitigated else None,
        obs=obs,
    )
    _process, log = spawn_domain_faults(sim, cluster, schedule, obs=obs)
    requests = [
        InferenceRequest(
            arrival_time=arrival_period_s * i,
            prompt_tokens=256,
            output_tokens=output_tokens,
        )
        for i in range(num_requests)
    ]
    report = cluster.run(requests)
    interactive = (report.sla_attainment or {}).get(
        SLAClass.INTERACTIVE, 0.0
    )
    result = {
        "mitigated": mitigated,
        "log_fingerprint": log.fingerprint(),
        "availability": report.availability,
        # Strict goodput: output tokens of *completed* requests per second
        # of horizon.  Work thrown away by failures, sheds, cancels and
        # recomputes never enters the numerator; arms are ranked by it.
        "goodput_tokens_per_s": report.useful_tokens / horizon_s,
        "slo_attainment": interactive,
        "requests_completed": report.requests_completed,
        "requests_failed": report.requests_failed,
        "requests_shed": report.requests_shed,
        "retries": report.retries,
        "hedges": report.hedges,
        "hedge_wins": report.hedge_wins,
        "deadline_timeouts": report.deadline_timeouts,
        "engine_crashes": report.engine_crashes,
        "engine_restarts": report.engine_restarts,
        "kv_recoveries": report.kv_recoveries,
        "kv_recompute_tokens": report.kv_recompute_tokens,
        "wasted_tokens": report.wasted_tokens,
        "time_to_recovery_s": report.time_to_recovery_s,
    }
    if obs is not None:
        result["obs"] = obs.snapshot()
    return result


def chaos_point(point: Dict[str, Any], seed: SeedLike) -> Dict[str, Any]:
    """One correlated-fault availability measurement: both arms, one
    domain timeline."""
    strike_rate_per_hour = float(point["strike_rate_per_hour"])
    horizon_s = float(point.get("horizon_s", 30.0))
    num_requests = int(point.get("num_requests", 60))
    num_engines = int(point.get("num_engines", 3))
    output_tokens = int(point.get("output_tokens", 32))
    arrival_period_s = float(point.get("arrival_period_s", 0.25))
    observe = bool(point.get("observe", False))

    topology = cluster_topology(num_engines, engines_per_domain=2)
    strike_rates = {}
    for domain in topology.domains:
        if domain.level == "engine":
            strike_rates[domain.name] = strike_rate_per_hour / HOUR
        elif domain.level == "power":
            strike_rates[domain.name] = strike_rate_per_hour / (4 * HOUR)
    schedule = generate_correlated_schedule(
        topology, strike_rates, horizon_s, seed
    )
    return {
        "strike_rate_per_hour": strike_rate_per_hour,
        "fault_events": len(schedule),
        "timeline_fingerprint": schedule.fingerprint(),
        "baseline": _chaos_arm(
            schedule, False, num_engines, num_requests, horizon_s,
            output_tokens, arrival_period_s, observe,
        ),
        "mitigated": _chaos_arm(
            schedule, True, num_engines, num_requests, horizon_s,
            output_tokens, arrival_period_s, observe,
        ),
    }


def run_controller_experiment(
    tiny: bool = False,
    root_seed: SeedLike = 0,
    workers: Optional[int] = None,
    points: Optional[Sequence[Dict[str, Any]]] = None,
) -> List[Dict[str, Any]]:
    """Sweep :func:`controller_point` over the availability grid."""
    return run_sweep(
        controller_point,
        points if points is not None else controller_grid(tiny),
        root_seed=root_seed,
        workers=workers,
    )


def run_serving_experiment(
    tiny: bool = False,
    root_seed: SeedLike = 0,
    workers: Optional[int] = None,
    points: Optional[Sequence[Dict[str, Any]]] = None,
) -> List[Dict[str, Any]]:
    """Sweep :func:`serving_point` over the KV-loss grid."""
    return run_sweep(
        serving_point,
        points if points is not None else serving_grid(tiny),
        root_seed=root_seed,
        workers=workers,
    )


def run_chaos_experiment(
    tiny: bool = False,
    root_seed: SeedLike = 0,
    workers: Optional[int] = None,
    points: Optional[Sequence[Dict[str, Any]]] = None,
) -> List[Dict[str, Any]]:
    """Sweep :func:`chaos_point` over the domain-strike grid."""
    return run_sweep(
        chaos_point,
        points if points is not None else chaos_grid(tiny),
        root_seed=root_seed,
        workers=workers,
    )
