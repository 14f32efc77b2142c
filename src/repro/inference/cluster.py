"""Multi-accelerator inference cluster.

"Each inference query ... requires distributed computation across
multiple AI accelerators.  At any given time, many inference requests
are multiplexed over the same cluster, but all of them are for the same
model" (Section 2).

:class:`Cluster` runs N :class:`~repro.inference.engine.InferenceEngine`
instances over one simulator, dispatches an arrival stream across them
(join-shortest-queue), and aggregates metrics into a
:class:`ClusterReport` — the object every cluster-level experiment
consumes.

The per-engine model share is handled by scaling: each engine is given
the whole model and a full accelerator; tensor-parallel groups are
modeled as one logical engine with the group's aggregate FLOPs/bandwidth
(build such a config with :func:`tensor_parallel_group`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional

from repro.inference.accelerator import AcceleratorConfig, MemoryTierSpec
from repro.inference.batching import RunningContext
from repro.inference.engine import (
    InferenceEngine,
    KVRecoveryConfig,
    _quantile_or_nan,
)
from repro.inference.resilience import ResiliencePolicy, ResilientDispatcher
from repro.sim import Histogram, Simulator
from repro.workload.model import ModelConfig
from repro.workload.requests import InferenceRequest, SLAClass

#: Outage length of a crashed engine when no resilience policy names one.
DEFAULT_RESTART_DELAY_S = 0.5


def tensor_parallel_group(
    accelerator: AcceleratorConfig, group_size: int
) -> AcceleratorConfig:
    """Aggregate ``group_size`` accelerators into one logical engine.

    FLOPs, tier capacities and bandwidths sum; per-device efficiency
    factors stay (collective-communication overheads are inside
    ``compute_efficiency``).  This mirrors how a TP group serves one
    model replica.
    """
    if group_size < 1:
        raise ValueError("group size must be >= 1")
    tiers = tuple(
        MemoryTierSpec(
            name=tier.name,
            capacity_bytes=tier.capacity_bytes * group_size,
            read_bandwidth=tier.read_bandwidth * group_size,
            write_bandwidth=tier.write_bandwidth * group_size,
            profile=tier.profile,
        )
        for tier in accelerator.tiers
    )
    return replace(
        accelerator,
        name=f"{accelerator.name}-tp{group_size}",
        peak_flops=accelerator.peak_flops * group_size,
        tiers=tiers,
        board_power_w=accelerator.board_power_w * group_size,
    )


#: Default latency SLOs per class: (max TTFT seconds, max mean TBT seconds).
#: Interactive = user-in-the-loop chat; throughput = batch API calls;
#: best-effort = background jobs (unbounded).
DEFAULT_SLA_THRESHOLDS = {
    SLAClass.INTERACTIVE: (1.0, 0.05),
    SLAClass.THROUGHPUT: (10.0, 0.5),
    SLAClass.BEST_EFFORT: (float("inf"), float("inf")),
}


@dataclass
class ClusterReport:
    """Aggregated results of one cluster run."""

    engines: int
    duration_s: float
    requests_completed: int
    tokens_generated: int
    throughput_tokens_per_s: float
    ttft_p50_s: float
    ttft_p99_s: float
    tbt_p50_s: float
    tbt_p99_s: float
    memory_bound_fraction: float
    tier_bytes_read: Dict[str, float]
    tier_bytes_written: Dict[str, float]
    access_energy_j: float
    board_energy_j: float
    #: Per SLA class: fraction of completed requests meeting their SLO
    #: (Section 4: "some use cases have tight latency SLAs").
    sla_attainment: Dict[SLAClass, float] = None
    #: Requests dropped by KV-loss faults (recovery budget exhausted or
    #: mitigation disabled) — see repro.faults.
    requests_failed: int = 0
    #: Running requests recovered by recompute-from-prefix.
    kv_recoveries: int = 0
    #: Tokens of work redone by those recoveries.
    kv_recompute_tokens: int = 0
    #: Resilience-layer outcomes (zero without a dispatcher).
    requests_shed: int = 0
    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    deadline_timeouts: int = 0
    engine_crashes: int = 0
    engine_restarts: int = 0
    #: Decode tokens thrown away (failed, cancelled or hedged-out arms).
    wasted_tokens: int = 0
    #: Output tokens of requests that actually completed — the goodput
    #: numerator the availability experiments compare.
    useful_tokens: int = 0
    #: Worst crash-to-displaced-request-completion time (0 = no crash
    #: displaced anything, or nothing displaced completed).
    time_to_recovery_s: float = 0.0

    @property
    def availability(self) -> float:
        """Fraction of finished requests actually served."""
        finished = (
            self.requests_completed + self.requests_failed + self.requests_shed
        )
        if finished == 0:
            return 1.0
        return self.requests_completed / finished

    @property
    def goodput_tokens_per_s(self) -> float:
        """Throughput net of recomputed (wasted) tokens."""
        if self.duration_s <= 0:
            return 0.0
        useful = max(0, self.tokens_generated - self.kv_recompute_tokens)
        return useful / self.duration_s

    @property
    def tokens_per_joule(self) -> float:
        total = self.access_energy_j + self.board_energy_j
        if total == 0:
            return 0.0
        return self.tokens_generated / total


class Cluster:
    """N engines + a join-shortest-queue dispatcher."""

    def __init__(
        self,
        sim: Simulator,
        accelerator: AcceleratorConfig,
        model: ModelConfig,
        num_engines: int = 1,
        placement: Optional[Mapping[str, str]] = None,
        max_batch_size: int = 16,
        enable_prefix_sharing: bool = False,
        kv_recovery: Optional[KVRecoveryConfig] = None,
        resilience: Optional[ResiliencePolicy] = None,
        obs=None,
    ) -> None:
        if num_engines < 1:
            raise ValueError("need at least one engine")
        self.sim = sim
        self.accelerator = accelerator
        self.model = model
        self.obs = obs
        self.resilience = resilience
        self.engines: List[InferenceEngine] = [
            InferenceEngine(
                sim,
                accelerator,
                model,
                placement=placement,
                max_batch_size=max_batch_size,
                enable_prefix_sharing=enable_prefix_sharing,
                kv_recovery=kv_recovery,
                name=f"engine-{i}",
                obs=obs,
            )
            for i in range(num_engines)
        ]
        self.dispatcher: Optional[ResilientDispatcher] = None
        if resilience is not None and resilience.enabled:
            self.dispatcher = ResilientDispatcher(
                sim, self, resilience, obs=obs
            )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _least_loaded(self) -> InferenceEngine:
        # Route around crashed engines; with the whole fleet down, fall
        # back to any engine's queue (it serves once it restarts).
        candidates = [e for e in self.engines if e.up] or self.engines
        return min(
            candidates,
            key=lambda e: (
                e.scheduler.pending_count + e.scheduler.batch_size,
                e.name,
            ),
        )

    def _deliver(self, request: InferenceRequest) -> None:
        if self.dispatcher is not None:
            self.dispatcher.submit(request)
        else:
            self._least_loaded().submit(request)

    def submit_stream(self, requests: Iterable[InferenceRequest]) -> int:
        """Schedule every request's arrival; returns the count."""
        count = 0
        for request in requests:
            self.sim.schedule_at(
                request.arrival_time,
                lambda _ev, r=request: self._deliver(r),
                name=f"arrival-{request.request_id}",
            )
            count += 1
        return count

    # ------------------------------------------------------------------
    # Fault handling (driven by repro.faults)
    # ------------------------------------------------------------------
    def handle_engine_crash(self, name: str):
        """Crash the named engine; returns ``(outcome, detail)``.

        With a dispatcher, displaced requests (recoverable running
        contexts and the lost pending queue) re-route to live engines.
        Without one (the no-mitigation baseline, or a pre-resilience
        caller), recompute-eligible running requests still re-dispatch
        via JSQ — that mitigation belongs to ``kv_recovery``, which
        produced them — but the lost queue simply fails.
        """
        engine = next((e for e in self.engines if e.name == name), None)
        if engine is None:
            raise ValueError(f"no engine named {name!r} in this cluster")
        if not engine.up:
            return "already-down", 0
        delay = (
            self.resilience.restart_delay_s
            if self.resilience is not None
            else DEFAULT_RESTART_DELAY_S
        )
        displaced, dropped_pending = engine.crash(delay)
        if self.dispatcher is not None:
            self.dispatcher.on_engine_crash(
                engine, displaced + dropped_pending
            )
        else:
            for request in displaced:
                self._least_loaded().submit(request)
            for request in dropped_pending:
                # The queue died with the engine: account each entry as a
                # failed request (it never had a running context).
                engine._fail(RunningContext(request=request))
        return "crashed", len(displaced) + len(dropped_pending)

    def run(self, requests: Iterable[InferenceRequest]) -> ClusterReport:
        """Run the full stream to completion and report."""
        submitted = self.submit_stream(requests)
        # Drain once all arrivals have been delivered: schedule the drain
        # after the furthest arrival by running the event loop in stages.
        self.sim.run()
        for engine in self.engines:
            engine.drain()
        self.sim.run()
        if self.dispatcher is not None:
            incomplete = submitted - self.dispatcher.settled
        else:
            finished = sum(
                len(e.completed) + len(e.failed) for e in self.engines
            )
            incomplete = submitted - finished
        if incomplete:
            raise RuntimeError(f"{incomplete} requests never completed")
        return self.report()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _work_end(self) -> float:
        """When serving actually finished: the last completion, failure
        or shed.  ``sim.now`` overstates it once resilience timers are
        in play — a deadline scheduled for t+30 for a request that
        finished at t+2 still drains through the event queue (stale
        timers are generation-guarded no-ops, never unqueued) and would
        otherwise stretch every rate metric's denominator.
        """
        end = 0.0
        for engine in self.engines:
            for context in engine.completed:
                if context.finished_at is not None and context.finished_at > end:
                    end = context.finished_at
            for context in engine.failed:
                if context.finished_at is not None and context.finished_at > end:
                    end = context.finished_at
        if self.dispatcher is not None and self.dispatcher.last_settle_s > end:
            end = self.dispatcher.last_settle_s
        return end if end > 0 else self.sim.now

    def report(self) -> ClusterReport:
        summaries = [e.summarize() for e in self.engines]
        duration = self._work_end() if self.dispatcher is not None else self.sim.now
        tokens = sum(s.tokens_generated for s in summaries)
        requests = sum(s.requests_completed for s in summaries)
        tier_reads: Dict[str, float] = {}
        tier_writes: Dict[str, float] = {}
        # Sorted tier order: engines may record tiers in different
        # insertion orders, and float addition is not associative.
        for summary in summaries:
            for tier, value in sorted(summary.tier_bytes_read.items()):
                tier_reads[tier] = tier_reads.get(tier, 0.0) + value
            for tier, value in sorted(summary.tier_bytes_written.items()):
                tier_writes[tier] = tier_writes.get(tier, 0.0) + value
        memory_steps = sum(s.memory_bound_steps for s in summaries)
        compute_steps = sum(s.compute_bound_steps for s in summaries)
        total_steps = memory_steps + compute_steps

        ttft = Histogram("ttft_s")
        tbt = Histogram("tbt_s")
        for engine in self.engines:
            ttft.observe_many(engine.ttft.samples())
            tbt.observe_many(engine.tbt.samples())
        board_energy = sum(
            self.accelerator.board_power_w * s.busy_time_s for s in summaries
        )
        sla_attainment = self._sla_attainment()
        useful_tokens = sum(
            context.request.output_tokens
            for engine in self.engines
            for context in engine.completed
        )
        dispatcher = self.dispatcher
        if dispatcher is not None:
            # Engine "failed" counters tally per-arm teardowns, some of
            # which the dispatcher retried to completion; the settled
            # outcomes are the request-level truth.
            requests_failed = dispatcher.failed
            resilience_fields = dict(
                requests_shed=dispatcher.shed,
                retries=dispatcher.retries,
                hedges=dispatcher.hedges,
                hedge_wins=dispatcher.hedge_wins,
                deadline_timeouts=dispatcher.deadline_timeouts,
                time_to_recovery_s=dispatcher.time_to_recovery_s,
            )
        else:
            requests_failed = sum(s.requests_failed for s in summaries)
            resilience_fields = {}
        return ClusterReport(
            engines=len(self.engines),
            duration_s=duration,
            requests_completed=requests,
            tokens_generated=tokens,
            throughput_tokens_per_s=(tokens / duration if duration > 0 else 0.0),
            ttft_p50_s=_quantile_or_nan(ttft, 0.5),
            ttft_p99_s=_quantile_or_nan(ttft, 0.99),
            tbt_p50_s=_quantile_or_nan(tbt, 0.5),
            tbt_p99_s=_quantile_or_nan(tbt, 0.99),
            memory_bound_fraction=(
                memory_steps / total_steps if total_steps else 0.0
            ),
            tier_bytes_read=tier_reads,
            tier_bytes_written=tier_writes,
            access_energy_j=sum(s.access_energy_j for s in summaries),
            board_energy_j=board_energy,
            sla_attainment=sla_attainment,
            requests_failed=requests_failed,
            kv_recoveries=sum(s.kv_recoveries for s in summaries),
            kv_recompute_tokens=sum(s.kv_recompute_tokens for s in summaries),
            engine_crashes=sum(s.engine_crashes for s in summaries),
            engine_restarts=sum(s.engine_restarts for s in summaries),
            wasted_tokens=sum(s.wasted_tokens for s in summaries),
            useful_tokens=useful_tokens,
            **resilience_fields,
        )

    def _sla_attainment(self) -> Dict[SLAClass, float]:
        """Fraction of completed requests meeting their class SLO.

        TTFT is measured from arrival to first token; the time-between-
        tokens figure is the request's mean (finish - first token) /
        (output tokens - 1).
        """
        met: Dict[SLAClass, int] = {}
        total: Dict[SLAClass, int] = {}
        for engine in self.engines:
            for context in engine.completed:
                request = context.request
                sla = request.sla
                total[sla] = total.get(sla, 0) + 1
                ttft_limit, tbt_limit = DEFAULT_SLA_THRESHOLDS[sla]
                ttft = context.first_token_at - request.arrival_time
                if request.output_tokens > 1:
                    mean_tbt = (context.finished_at - context.first_token_at) / (
                        request.output_tokens - 1
                    )
                else:
                    mean_tbt = 0.0
                if ttft <= ttft_limit and mean_tbt <= tbt_limit:
                    met[sla] = met.get(sla, 0) + 1
        return {
            sla: met.get(sla, 0) / count for sla, count in total.items()
        }
