"""One accelerator's serving loop, as a discrete-event process.

:class:`InferenceEngine` glues the pieces together: requests arrive, the
batch scheduler admits them against free KV pages, prefill runs (one
request at a time, compute-bound; a request submitted ``prefilled``
brings its prompt KV and skips it), then continuous decode iterations run
the whole batch; each iteration's duration comes from the roofline with
bytes routed to tiers per the *placement map* — the knob the tiering
experiments turn:

    placement = {"weights": "hbm", "kv": "hbm", "activations": "hbm"}
    placement = {"weights": "mrm", "kv": "mrm", "activations": "hbm"}

Decode runs in *leaps*: every iteration of an unchanged batch, up to and
including the first one at which a context finishes, is computed in one
NumPy pass and costs the kernel one wakeup, at the leap's last step
boundary.  A call from outside (:meth:`InferenceEngine.submit`,
``cancel``, ``crash``, ``inject_kv_loss``, ``summarize``) first
*settles* the leap at the current time: the steps that ended before now
deliver their tokens, the step in flight is accounted, and the leap is
cut so the loop's wakeup moves to that step's boundary, where the
one-event-per-iteration loop would next have admitted or torn down (a
crash then drops the leap).
Results equal that loop's bit for bit; ``docs/PERFORMANCE.md`` gives
the rules.

Recorded per engine, as plain attributes: TTFT and time-between-tokens
histograms, token throughput, per-tier byte traffic, access energy, and
the memory-vs-compute-bound step tally (experiment E4's numerator).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Mapping, Optional, Set

import numpy as np

from repro.inference.accelerator import AcceleratorConfig
from repro.inference.batching import BatchScheduler, RunningContext
from repro.inference.kvcache import KVCacheManager
from repro.inference.roofline import Boundedness, RooflineModel
from repro.obs import NULL_REGISTRY
from repro.sim import Histogram, Interrupted, Simulator, Timeout, WakeAt
from repro.workload.model import ModelConfig
from repro.workload.phases import decode_lanes, prefill_traffic
from repro.workload.requests import InferenceRequest

DEFAULT_PLACEMENT = {"weights": "hbm", "kv": "hbm", "activations": "hbm"}


def resolve_placement(
    accelerator: AcceleratorConfig, placement: Optional[Mapping[str, str]]
) -> Dict[str, str]:
    """``placement`` merged over :data:`DEFAULT_PLACEMENT` and checked.

    Raises ``ValueError`` for a structure other than the three default
    ones (a misspelt key would otherwise be kept and ignored) and
    ``KeyError`` for a tier ``accelerator`` does not have.
    """
    resolved = dict(DEFAULT_PLACEMENT, **(placement or {}))
    unknown = sorted(set(resolved) - set(DEFAULT_PLACEMENT))
    if unknown:
        raise ValueError(
            f"unknown placement structure(s) {unknown}; expected "
            f"{', '.join(DEFAULT_PLACEMENT)}"
        )
    for tier in resolved.values():
        accelerator.tier(tier)
    return resolved


class EngineCrashed(Interrupted):
    """Thrown into a serving loop when its engine crashes.

    Subclassing :class:`~repro.sim.Interrupted` means a loop that does
    not catch it dies quietly instead of surfacing as a
    ``SimProcessError``; :meth:`InferenceEngine._serve_loop` catches it,
    sleeps through the outage and restarts.  Carries the restart delay
    so the crash site decides the outage length, not the loop.
    """

    def __init__(self, restart_delay_s: float) -> None:
        super().__init__(f"engine crashed; restart in {restart_delay_s}s")
        self.restart_delay_s = restart_delay_s


@dataclass(frozen=True)
class KVRecoveryConfig:
    """How an engine responds to losing a running request's KV cache.

    KV pages on MRM are soft state: "data stored in MRM either is
    durable elsewhere or is soft state that can be recomputed" (Section
    4).  Losing them mid-request is therefore recoverable — the prompt
    is still known, so the engine can *recompute from the prefix*:
    re-enqueue the request, re-run prefill, regenerate.  The budget
    bounds how often one request may be recovered before it is failed
    (a retry/timeout guard against a request that keeps landing on bad
    pages).

    ``enabled=False`` is the no-mitigation baseline: any KV loss fails
    the request outright.
    """

    enabled: bool = True
    max_recoveries_per_request: int = 2

    def __post_init__(self) -> None:
        if self.max_recoveries_per_request < 0:
            raise ValueError("recovery budget must be >= 0")


def _quantile_or_nan(histogram: Histogram, quantile: float) -> float:
    """Report-friendly quantile: NaN instead of None on an empty histogram."""
    value = histogram.quantile(quantile)
    return float("nan") if value is None else value


def _accumulate(*pairs) -> Dict[str, float]:
    """Sum (tier, bytes) pairs into a dict — two structures on the same
    tier must add their traffic, not overwrite each other.  Values may
    be per-step arrays."""
    out: Dict[str, float] = {}
    for tier, value in pairs:
        out[tier] = out.get(tier, 0.0) + value
    return out


class _DecodeLeap:
    """The decode iterations of one unchanged batch, computed up front.

    Steps are numbered from 1; ``bounds[s]`` is the time step ``s`` ends
    (``bounds[0]`` is the leap's start), a running sum in the order the
    per-step loop's clock advanced.  ``totals[:, 2 * s]`` holds the
    engine's running totals with steps up to ``s`` accounted.
    ``end`` is the last step the leap will run — the first at which a
    context finishes, or the step in flight when an outside call cut it.
    ``delivered`` steps have given their tokens and ``accounted`` steps
    are in the engine's tallies.
    """

    __slots__ = (
        "batch",
        "bounds",
        "durations",
        "memory_bound",
        "totals",
        "end",
        "delivered",
        "accounted",
        "admit_blocked",
    )

    def __init__(self, engine: "InferenceEngine", batch: List[RunningContext]) -> None:
        self.batch = batch
        steps = min(c.request.output_tokens - c.generated for c in batch)
        traffic = engine.lanes.leap([c.context_tokens for c in batch], steps)
        placement = engine.placement
        durations, memory_bound = engine.roofline.time_steps(
            traffic.flops,
            _accumulate(
                (placement["weights"], traffic.bytes_read_weights),
                (placement["kv"], traffic.bytes_read_kv),
            ),
            {placement["kv"]: traffic.bytes_written_kv},
        )
        self.durations = durations
        self.memory_bound = memory_bound
        # One fold for the clock and every running total.  Row r starts
        # with its value now, then takes each step's weights term and KV
        # term in _account_step's order, so column 2s holds it after
        # step s.  A zero stands for a term the row does not take, and
        # adding 0.0 leaves a non-negative total unchanged.  Only this
        # leap moves the totals while it runs: their one other writer,
        # the serving loop's prefill, waits for the leap to end.
        weights, kv = engine._weights_tier, engine._kv_tier
        weights_read = traffic.bytes_read_weights
        kv_read = traffic.bytes_read_kv
        kv_written = traffic.bytes_written_kv
        reads = engine.tier_bytes_read
        terms = np.zeros((6, 2 * steps + 1))
        terms[:, 0] = (
            engine.sim.now,
            engine._busy_time,
            reads[weights.name],
            reads[kv.name],
            engine.tier_bytes_written[kv.name],
            engine.access_energy_j,
        )
        terms[0:2, 1::2] = durations
        terms[2, 1::2] = weights_read
        if weights.name == kv.name:
            terms[3, 1::2] = weights_read
        terms[3, 2::2] = kv_read
        terms[4, 2::2] = kv_written
        terms[5, 1::2] = weights.read_energy_j(weights_read)
        terms[5, 2::2] = kv.read_energy_j(kv_read) + kv.write_energy_j(kv_written)
        folded = np.add.accumulate(terms, axis=1)
        self.bounds = folded[0, ::2].tolist()
        self.totals = folded[1:]
        self.end = steps
        self.delivered = 0
        self.accounted = 0
        # The per-step loop asks the scheduler to admit before every
        # step; this pass asked once.  Nothing it could admit appears
        # mid-leap, but a blocked attempt bumps ``rejected_for_memory``
        # each time, which the accounting replays.
        scheduler = engine.scheduler
        self.admit_blocked = int(
            scheduler.pending_count > 0
            and scheduler.batch_size < scheduler.max_batch_size
        )

    def in_flight(self, now: float) -> int:
        """The step running at ``now``: the first whose boundary is not
        before it (a call at exactly a boundary precedes that step's
        own wakeup, so the step is still in flight)."""
        return bisect_left(self.bounds, now, 1, self.end + 1)


@dataclass
class EngineMetrics:
    """Summary view of one engine's run (copied from its tallies)."""

    requests_completed: int
    tokens_generated: int
    ttft_p50_s: float
    ttft_p99_s: float
    tbt_p50_s: float
    tbt_p99_s: float
    memory_bound_steps: int
    compute_bound_steps: int
    tier_bytes_read: Dict[str, float]
    tier_bytes_written: Dict[str, float]
    access_energy_j: float
    busy_time_s: float
    requests_failed: int = 0
    kv_losses: int = 0
    kv_recoveries: int = 0
    kv_recompute_tokens: int = 0
    requests_cancelled: int = 0
    wasted_tokens: int = 0
    engine_crashes: int = 0
    engine_restarts: int = 0

    @property
    def memory_bound_fraction(self) -> float:
        total = self.memory_bound_steps + self.compute_bound_steps
        if total == 0:
            return 0.0
        return self.memory_bound_steps / total


class InferenceEngine:
    """Serving loop for one accelerator.

    Parameters
    ----------
    sim:
        The shared simulator.
    accelerator / model:
        Hardware and model configs.
    placement:
        Structure -> tier-name map ("weights", "kv", "activations").
    kv_capacity_bytes:
        KV pool size.  Defaults to the KV tier's capacity minus the
        weights (when they share a tier) and an activations reserve.
    max_batch_size / tokens_per_page:
        Batching and paging knobs.
    """

    def __init__(
        self,
        sim: Simulator,
        accelerator: AcceleratorConfig,
        model: ModelConfig,
        placement: Optional[Mapping[str, str]] = None,
        kv_capacity_bytes: Optional[int] = None,
        max_batch_size: int = 16,
        tokens_per_page: int = 16,
        enable_prefix_sharing: bool = False,
        kv_recovery: Optional[KVRecoveryConfig] = None,
        name: str = "",
        obs=None,
    ) -> None:
        self.sim = sim
        self.accelerator = accelerator
        self.model = model
        self.placement = resolve_placement(accelerator, placement)
        self.name = name or f"engine-{accelerator.name}"
        self.roofline = RooflineModel(accelerator)
        self.lanes = decode_lanes(model)
        # Placement is fixed for the engine's life: resolve the routed
        # tiers once so per-step accounting does no lookup.
        self._weights_tier = accelerator.tier(self.placement["weights"])
        kv_tier = self._kv_tier = accelerator.tier(self.placement["kv"])
        if kv_capacity_bytes is None:
            reserved = 0
            if self.placement["weights"] == self.placement["kv"]:
                reserved += model.weights_bytes
            if self.placement["activations"] == self.placement["kv"]:
                reserved += model.activation_bytes(max_batch_size)
            kv_capacity_bytes = kv_tier.capacity_bytes - reserved
        if kv_capacity_bytes <= 0:
            raise ValueError(
                f"{self.name}: no KV capacity left on tier {kv_tier.name!r} "
                f"after weights/activations reservation"
            )
        # The plain tallies below are the summaries' source of truth;
        # the shared obs registry mirrors the serving counters under an
        # engine label for snapshots and exports.
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.kv = KVCacheManager(
            model,
            kv_capacity_bytes,
            tokens_per_page=tokens_per_page,
            enable_prefix_sharing=enable_prefix_sharing,
            obs=self.obs,
            name=self.name,
        )
        self.scheduler = BatchScheduler(self.kv, max_batch_size=max_batch_size)
        self.ttft = Histogram("ttft_s")
        self.tbt = Histogram("tbt_s")
        self.tokens_generated = 0
        self.memory_bound_steps = 0
        self.compute_bound_steps = 0
        #: Per-tier byte traffic, keyed in the accelerator's tier order.
        self.tier_bytes_read = {tier.name: 0.0 for tier in accelerator.tiers}
        self.tier_bytes_written = {tier.name: 0.0 for tier in accelerator.tiers}
        self.access_energy_j = 0.0
        self.prefix_tokens_shared = 0
        self.kv_losses = 0
        self.kv_recoveries = 0
        self.kv_recompute_tokens = 0
        self.requests_cancelled = 0
        self.wasted_tokens = 0
        self.engine_crashes = 0
        self.engine_restarts = 0
        o = self.obs
        engine = self.name
        self._obs_tokens = o.counter("engine.tokens_generated_total", engine=engine)
        self._obs_completed = o.counter("engine.requests_completed_total", engine=engine)
        self._obs_failed = o.counter("engine.requests_failed_total", engine=engine)
        self._obs_kv_losses = o.counter("engine.kv_losses_total", engine=engine)
        self._obs_kv_recoveries = o.counter("engine.kv_recoveries_total", engine=engine)
        self._obs_recompute = o.counter("engine.kv_recompute_tokens_total", engine=engine)
        self._obs_prefix_shared = o.counter("engine.prefix_tokens_shared_total", engine=engine)
        self._obs_mem_steps = o.counter("engine.memory_bound_steps_total", engine=engine)
        self._obs_compute_steps = o.counter("engine.compute_bound_steps_total", engine=engine)
        self._obs_ttft = o.histogram("engine.ttft_s", engine=engine)
        self._obs_tbt = o.histogram("engine.tbt_s", engine=engine)
        self._obs_crashes = o.counter("engine.crashes_total", engine=engine)
        self.completed: List[RunningContext] = []
        self.kv_recovery = kv_recovery or KVRecoveryConfig()
        #: requests dropped after exhausting their recovery budget (or
        #: any KV loss when recovery is disabled).
        self.failed: List[RunningContext] = []
        self._recoveries_used: Dict[int, int] = {}
        #: Ids of queued requests that were submitted ``prefilled``.
        self._prefilled: Set[int] = set()
        self._leap: Optional[_DecodeLeap] = None
        self._wakeup = sim.event(name=f"{self.name}-wakeup")
        self._process = sim.spawn(self._serve_loop(), name=self.name)
        self._busy_time = 0.0
        self._draining = False
        #: False while crashed; the JSQ router skips down engines.
        self.up = True
        #: Simulated time the current outage ends (meaningful when not
        #: ``up``); dispatchers use it to defer work instead of shedding.
        self.down_until = 0.0
        #: Called as ``listener(context, outcome)`` when a request leaves
        #: the engine terminally (outcome ``"completed"``/``"failed"``) —
        #: the hook a resilience dispatcher hangs its trackers on.
        self.request_listener: Optional[
            Callable[[RunningContext, str], None]
        ] = None

    # ------------------------------------------------------------------
    # External interface
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest, prefilled: bool = False) -> None:
        """Hand a request to this engine (at the current simulated time).

        A ``prefilled`` request brings its prompt KV (a phase-split
        prefill machine computed it), so admission runs no prefill step.
        The mark dies with the pending entry: any recompute prefills.
        """
        self._settle()
        if prefilled:
            self._prefilled.add(request.request_id)
        self.scheduler.enqueue(request)
        self._wake()

    def drain(self) -> None:
        """No more submissions: the loop exits once work completes."""
        self._draining = True
        self._wake()

    def _wake(self) -> None:
        if not self._wakeup.fired and not self._wakeup.scheduled:
            self.sim.trigger(self._wakeup)

    # ------------------------------------------------------------------
    # Fault handling (driven by repro.faults)
    # ------------------------------------------------------------------
    def inject_kv_loss(self, magnitude: float) -> str:
        """One running request's KV pages are lost.

        The victim is chosen deterministically from ``magnitude`` (a
        uniform draw frozen at schedule time): running context ids are
        sorted and ``magnitude`` indexes into them — no fresh RNG, so
        the same fault timeline always strikes the same requests.
        When no request is running the fault lands on empty cells and
        is harmless.

        With recovery enabled and budget left, the request is recomputed
        from its prefix: KV released, context torn down, the original
        request re-enqueued (its arrival time — and therefore its
        latency accounting — unchanged).  Otherwise the request fails.

        Returns what happened: ``"recovered"``, ``"failed"`` or
        ``"no-target"``.
        """
        if not 0.0 <= magnitude < 1.0:
            raise ValueError("magnitude must be in [0, 1)")
        self._settle()
        victims = sorted(self.scheduler.running)
        if not victims:
            return "no-target"
        context_id = victims[int(magnitude * len(victims))]
        context = self.scheduler.running[context_id]
        if not self._lose_kv(context):
            return "failed"
        self.scheduler.enqueue(context.request)
        self._wake()
        return "recovered"

    def _lose_kv(self, context: RunningContext) -> bool:
        """Tear down a running context whose KV pages are gone.

        Returns True when the request has recovery budget left: it is
        then owed a recompute from its prefix (prompt prefill plus every
        generated token is redone), which the caller arranges.
        Otherwise the request has failed here.
        """
        context_id = context.context_id
        # Pages are untrustworthy, the context cannot decode.
        self.kv.release(context_id)
        self.scheduler.finish(context_id)
        self.kv_losses += 1
        self._obs_kv_losses.add()
        used = self._recoveries_used.get(context_id, 0)
        cfg = self.kv_recovery
        if cfg.enabled and used < cfg.max_recoveries_per_request:
            self._recoveries_used[context_id] = used + 1
            self.kv_recoveries += 1
            self.kv_recompute_tokens += context.context_tokens
            self._obs_kv_recoveries.add()
            self._obs_recompute.add(context.context_tokens)
            return True
        self._fail(context)
        return False

    def _fail(self, context: RunningContext) -> None:
        """Terminal failure: account it and tell the dispatcher."""
        context.finished_at = self.sim.now
        self.failed.append(context)
        # Tokens already decoded for a failed request were wasted work.
        self.wasted_tokens += context.generated
        self._obs_failed.add()
        listener = self.request_listener
        if listener is not None:
            listener(context, "failed")

    def crash(self, restart_delay_s: float):
        """Kill this engine at the current instant.

        Every resident KV context is gone and the pending queue with it.
        Returns ``(displaced, dropped_pending)``: running requests with
        recovery budget left are *displaced* — handed back for
        recompute-from-prefix on another engine (or this one, after
        restart) with the usual recompute accounting — while the rest
        fail here; ``dropped_pending`` is the lost queue, whose fate
        (re-route or fail) is the caller's mitigation decision.

        The serving loop is interrupted (cancelling whatever iteration
        timer it was sleeping on via the kernel's generation check) and
        sleeps ``restart_delay_s`` before coming back up; a decode leap
        in flight is settled, cut and dropped, its current step
        accounted but never delivered.
        """
        if restart_delay_s <= 0:
            raise ValueError("restart delay must be > 0")
        if not self.up:
            return [], []
        # Cut, then drop: the interrupt below strands the wakeup at the
        # boundary of the step in flight, where the per-step loop's was.
        self._settle()
        self._leap = None
        self.up = False
        self.down_until = self.sim.now + restart_delay_s
        self.engine_crashes += 1
        self._obs_crashes.add()
        displaced: List[InferenceRequest] = []
        for context_id in sorted(self.scheduler.running):
            context = self.scheduler.running[context_id]
            if self._lose_kv(context):
                displaced.append(context.request)
        dropped_pending = self.scheduler.pop_pending()
        self._prefilled.clear()
        if self._process.alive:
            self._process.interrupt(EngineCrashed(restart_delay_s))
        else:
            # Crashed after the loop drained: restart by callback so the
            # engine still comes back up for late re-dispatches.  Crash
            # handling is a per-fault cold path, not a per-event one.
            self.sim.schedule(
                restart_delay_s,
                lambda _event: self._restart(),
                name=f"{self.name}-restart",
            )
        return displaced, dropped_pending

    def _restart(self) -> None:
        self.up = True
        self._wakeup = self.sim.event(name=f"{self.name}-wakeup")
        self.engine_restarts += 1

    def cancel(self, request_id: int) -> bool:
        """Withdraw a request: neither completed nor failed.

        The hedging/retry path: the dispatcher cancels the losing
        sibling (or a timed-out attempt).  A pending request is simply
        dropped; a running one is torn down and its decoded tokens
        counted as wasted work.  Returns False when the request is not
        resident here (already finished, or never dispatched here).
        """
        self._settle()
        if self.scheduler.remove_pending(request_id):
            self._prefilled.discard(request_id)
            self.requests_cancelled += 1
            return True
        context = self.scheduler.running.get(request_id)
        if context is None:
            return False
        self.kv.release(request_id)
        self.scheduler.finish(request_id)
        self.requests_cancelled += 1
        self.wasted_tokens += context.generated
        return True

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _serve_loop(self) -> Generator:
        while True:
            try:
                yield from self._serve_pass()
            except EngineCrashed as crash:
                # The outage: whatever iteration timer the loop slept on
                # is a stale wakeup now (the interrupt bumped the wait
                # generation), so only this restart timer can resume us.
                yield Timeout(crash.restart_delay_s)
                self._restart()
                continue
            return

    def _serve_pass(self) -> Generator:
        """The pre-crash serving loop; returns only on drain."""
        while True:
            if not self.scheduler.has_work():
                if self._draining:
                    return
                # Wait on the current wakeup event (the one _wake fires),
                # then replace it so the next wait gets a fresh one.
                yield self._wakeup
                self._wakeup = self.sim.event(name=f"{self.name}-wakeup")
                continue
            # 1. Admit + prefill (one request per pass keeps TTFT fair).
            request = self.scheduler.try_admit()
            if request is not None:
                if request.request_id in self._prefilled:
                    # Decode-only: its prompt KV arrived with it.
                    self._prefilled.remove(request.request_id)
                    self._start(request).prefill_done_at = self.sim.now
                else:
                    yield from self._run_prefill(request)
                continue
            # 2. Decode the running batch up to its next change.
            batch = self.scheduler.decode_batch()
            if batch:
                yield from self._run_decode_leap(batch)
                continue
            # Nothing runnable: pending requests exist but don't fit.
            if self.scheduler.running:
                # In-flight prefill contexts will finish via their yields.
                yield Timeout(1e-3)
            else:
                if self._draining and self.scheduler.pending_count == 0:
                    return
                # Pending-but-unadmittable with nothing running means the
                # pool is too small for the request: fail loudly rather
                # than spin forever.
                raise RuntimeError(
                    f"{self.name}: {self.scheduler.pending_count} pending "
                    f"requests cannot ever be admitted (KV pool too small)"
                )

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _start(self, request: InferenceRequest) -> RunningContext:
        """Admit ``request`` into the running set with its prompt's KV."""
        context = self.scheduler.start(request)
        _allocated, shared_tokens = self.kv.register(
            context.context_id,
            request.prompt_tokens,
            prefix_key=request.prefix_key,
        )
        if shared_tokens:
            self.prefix_tokens_shared += shared_tokens
            self._obs_prefix_shared.add(shared_tokens)
        return context

    def _run_prefill(self, request: InferenceRequest) -> Generator:
        context = self._start(request)
        # Multi-turn follow-up: history KV already resident, prefill only
        # the new turn's tokens.
        new_tokens = request.prompt_tokens - request.cached_prompt_tokens
        traffic = prefill_traffic(self.model, new_tokens)
        timing = self.roofline.time_step(
            traffic.flops,
            {self.placement["weights"]: traffic.bytes_read_weights},
            {self.placement["kv"]: traffic.bytes_written_kv},
        )
        self._account_step(traffic, timing)
        yield Timeout(timing.duration_s)
        context.prefill_done_at = self.sim.now

    def _run_decode_leap(self, batch: List[RunningContext]) -> Generator:
        leap = self._leap = _DecodeLeap(self, batch)
        yield WakeAt(leap.bounds[leap.end])
        # Woken at the boundary of the leap's last step (its first
        # finishing step, or where an outside call cut it).
        self._leap = None
        self._account_through(leap, leap.end)
        batch = self._deliver_through(leap, leap.end)
        finished = [c for c in batch if c.done]
        if finished:
            now = self.sim.now
            for context in finished:
                context.finished_at = now
            self.kv.release_batch([c.context_id for c in finished])
            listener = self.request_listener
            for context in finished:
                self.scheduler.finish(context.context_id)
            self.completed.extend(finished)
            self._obs_completed.add(len(finished))
            if listener is not None:
                # After the batch bookkeeping: a listener reaction (e.g.
                # cancelling a hedge sibling on another engine) must not
                # interleave with this engine's own counters.
                for context in finished:
                    listener(context, "completed")

    def _settle(self) -> None:
        """Bring a decode leap up to ``now`` before an outside call.

        Steps that ended strictly before now deliver their tokens and
        the step in flight is accounted, exactly as the per-step loop
        would stand at this instant.  The leap is then cut at the step in
        flight: the loop's wakeup moves to that step's boundary, where it
        next admits, tears down or re-plans.
        """
        leap = self._leap
        if leap is None:
            return
        step = leap.in_flight(self.sim.now)
        self._deliver_through(leap, step - 1)
        self._account_through(leap, step)
        if step < leap.end:
            leap.end = step
            self._process.wake_at(leap.bounds[step])

    def _deliver_through(self, leap: _DecodeLeap, step: int) -> List[RunningContext]:
        """Give the leap's steps up to ``step`` their tokens; returns the
        batch members still running (a KV loss or cancel may have torn
        one out while the step in flight ran: it gets no token)."""
        running = self.scheduler.running
        batch = [c for c in leap.batch if c.context_id in running]
        first = leap.delivered
        steps = step - first
        if steps <= 0:
            return batch
        leap.delivered = step
        self.kv.append_batch([c.context_id for c in batch], steps)
        if not batch:
            return batch
        if first == 0:
            first_token_at = leap.bounds[1]
            for context in batch:
                if context.first_token_at is None:
                    context.first_token_at = first_token_at
                    wait = first_token_at - context.request.arrival_time
                    self.ttft.observe(wait)
                    self._obs_ttft.observe(wait)
        for context in batch:
            context.generated += steps
        # One sample per token, in (step, batch position) order.
        gaps = leap.durations[first:step].repeat(len(batch))
        self.tbt.observe_many(gaps)
        self._obs_tbt.observe_many(gaps)
        tokens = steps * len(batch)
        self.tokens_generated += tokens
        self._obs_tokens.add(tokens)
        return batch

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _account_through(self, leap: _DecodeLeap, step: int) -> None:
        """Bring the tallies to the end of the leap's step ``step``: the
        totals as the leap folded them, each step's terms in
        :meth:`_account_step`'s order, left to right."""
        first = leap.accounted
        steps = step - first
        if steps <= 0:
            return
        leap.accounted = step
        memory = int(np.count_nonzero(leap.memory_bound[first:step]))
        if memory:
            self.memory_bound_steps += memory
            self._obs_mem_steps.add(memory)
        if steps - memory:
            self.compute_bound_steps += steps - memory
            self._obs_compute_steps.add(steps - memory)
        weights, kv = self._weights_tier, self._kv_tier
        reads = self.tier_bytes_read
        # Assigned left to right: on a shared tier, the KV-tier row (both
        # read terms) overwrites the weights-tier row.
        (
            self._busy_time,
            reads[weights.name],
            reads[kv.name],
            self.tier_bytes_written[kv.name],
            self.access_energy_j,
        ) = leap.totals[:, 2 * step].tolist()
        # Step 1's admission attempt really ran; replay the others.
        replayed = step - max(first, 1)
        if replayed > 0:
            self.scheduler.rejected_for_memory += leap.admit_blocked * replayed

    def _account_step(self, traffic, timing) -> None:
        self._busy_time += timing.duration_s
        if timing.boundedness is Boundedness.MEMORY:
            self.memory_bound_steps += 1
            self._obs_mem_steps.add()
        else:
            self.compute_bound_steps += 1
            self._obs_compute_steps.add()
        # Weights route first, then KV: when both share a tier, the sums
        # and the energy total round in this order.
        weights, kv = self._weights_tier, self._kv_tier
        weights_read = traffic.bytes_read_weights
        kv_read = traffic.bytes_read_kv
        kv_written = traffic.bytes_written_kv
        self.tier_bytes_read[weights.name] += weights_read
        self.access_energy_j += weights.read_energy_j(weights_read)
        self.tier_bytes_read[kv.name] += kv_read
        self.tier_bytes_written[kv.name] += kv_written
        self.access_energy_j += (
            kv.read_energy_j(kv_read) + kv.write_energy_j(kv_written)
        )

    def summarize(self) -> EngineMetrics:
        """Snapshot the run into an :class:`EngineMetrics`."""
        self._settle()
        return EngineMetrics(
            requests_completed=len(self.completed),
            tokens_generated=self.tokens_generated,
            ttft_p50_s=_quantile_or_nan(self.ttft, 0.5),
            ttft_p99_s=_quantile_or_nan(self.ttft, 0.99),
            tbt_p50_s=_quantile_or_nan(self.tbt, 0.5),
            tbt_p99_s=_quantile_or_nan(self.tbt, 0.99),
            memory_bound_steps=self.memory_bound_steps,
            compute_bound_steps=self.compute_bound_steps,
            tier_bytes_read=dict(self.tier_bytes_read),
            tier_bytes_written=dict(self.tier_bytes_written),
            access_energy_j=self.access_energy_j,
            busy_time_s=self._busy_time,
            requests_failed=len(self.failed),
            kv_losses=self.kv_losses,
            kv_recoveries=self.kv_recoveries,
            kv_recompute_tokens=self.kv_recompute_tokens,
            requests_cancelled=self.requests_cancelled,
            wasted_tokens=self.wasted_tokens,
            engine_crashes=self.engine_crashes,
            engine_restarts=self.engine_restarts,
        )
