"""Graceful-degradation serving: deadlines, retries, hedging, shedding.

The cluster's answer to correlated faults (:mod:`repro.faults.domains`):
when an engine or a whole power domain goes down mid-decode, the fleet
must degrade — finish what it can, shed what it must — instead of
stalling.  :class:`ResilientDispatcher` wraps the cluster's JSQ router
with the four standard availability mechanisms:

- **deadline timeouts** — every dispatched request carries a deadline;
  a request that blows it is cancelled and retried (or failed once the
  budget is gone);
- **retries with exponential backoff** — the backoff sequence is pure
  arithmetic (``base * 2**attempt``), never an RNG draw, so retry
  timing is part of the deterministic replay;
- **tail-latency hedging** — after ``hedge_delay_s`` an unfinished
  request is cloned (fresh id) onto the engine with the second-shortest
  queue; the first copy to finish cancels the other (PR 7's
  generation-based stale-wakeup cancellation does the timer side);
- **admission control** — with every live queue at ``max_queue_depth``
  the request is shed at the door, deterministically, rather than
  queued into a latency it can never meet.

Every timer (deadline, hedge, backoff, defer) is an ordinary simulator
callback guarded by a per-request *generation* counter: settling or
re-dispatching a request bumps the generation, so a stale timer wakes
up, sees a newer generation, and does nothing.  No timer is ever pulled
out of the event queue — which is why reports measure duration by the
last settlement, not by the drained clock (see
``Cluster._work_end``).

The dispatcher is deterministic by construction: engine choice is the
``(queue depth, name)`` minimum, shed decisions compare integers, and
every callback runs at a simulated time derived from the policy
constants — so a fault timeline plus a request stream fully determines
shed/retry/hedge counts, serial or fan-out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.inference.batching import RunningContext
from repro.inference.engine import InferenceEngine
from repro.obs import NULL_REGISTRY
from repro.workload.requests import InferenceRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.inference.cluster import Cluster
    from repro.sim import Simulator


@dataclass(frozen=True)
class ResiliencePolicy:
    """The graceful-degradation knobs, validated at construction.

    A cluster given no policy (``resilience=None``) is the
    no-mitigation baseline arm: it routes around dead engines (that
    much is plain IP routing) but nothing is retried, hedged, shed or
    recovered.

    Attributes
    ----------
    deadline_s:
        Per-attempt deadline from dispatch; ``inf`` disables timeouts.
    max_retries:
        Re-dispatch budget per request after timeouts/failures.
    retry_backoff_s:
        Base backoff; attempt ``n`` waits ``base * 2**(n-1)``.
    hedge_delay_s:
        Clone an unfinished request onto a second engine after this
        long; ``0`` disables hedging.
    max_queue_depth:
        Shed arrivals when every live engine's queue (pending + batch)
        is at least this deep; ``0`` means unbounded (no shedding).
    restart_delay_s:
        Outage length of a crashed engine before it serves again.
    """

    deadline_s: float = 30.0
    max_retries: int = 2
    retry_backoff_s: float = 0.05
    hedge_delay_s: float = 0.0
    max_queue_depth: int = 0
    restart_delay_s: float = 0.5

    def __post_init__(self) -> None:
        if math.isnan(self.deadline_s) or self.deadline_s <= 0:
            raise ValueError("deadline must be > 0")
        if self.max_retries < 0:
            raise ValueError("retry budget must be >= 0")
        if (
            math.isnan(self.retry_backoff_s)
            or math.isinf(self.retry_backoff_s)
            or self.retry_backoff_s < 0
        ):
            raise ValueError("retry backoff must be a finite number >= 0")
        if (
            math.isnan(self.hedge_delay_s)
            or math.isinf(self.hedge_delay_s)
            or self.hedge_delay_s < 0
        ):
            raise ValueError("hedge delay must be a finite number >= 0")
        if self.max_queue_depth < 0:
            raise ValueError("queue depth bound must be >= 0")
        if (
            math.isnan(self.restart_delay_s)
            or math.isinf(self.restart_delay_s)
            or self.restart_delay_s <= 0
        ):
            raise ValueError("restart delay must be a finite number > 0")


def _fresh_copy(request: InferenceRequest) -> InferenceRequest:
    """A hedge clone: same work, fresh ``request_id`` (KV registration
    and batch membership are keyed on the id, so the clone must not
    collide with the primary on another engine)."""
    return InferenceRequest(
        arrival_time=request.arrival_time,
        prompt_tokens=request.prompt_tokens,
        output_tokens=request.output_tokens,
        sla=request.sla,
        cached_prompt_tokens=request.cached_prompt_tokens,
    )


class _Tracker:
    """Dispatcher-side state for one original request."""

    __slots__ = (
        "request",
        "attempts",
        "generation",
        "engine",
        "hedge_request",
        "hedge_engine",
        "hedged",
        "outstanding",
        "settled",
        "outcome",
        "crash_time",
    )

    def __init__(self, request: InferenceRequest) -> None:
        self.request = request
        self.attempts = 0
        #: Bumped on every primary-arm state change; stale timers check
        #: it and no-op (the PR 7 cancellation idiom, callback edition).
        self.generation = 0
        self.engine: Optional[InferenceEngine] = None
        self.hedge_request: Optional[InferenceRequest] = None
        self.hedge_engine: Optional[InferenceEngine] = None
        self.hedged = False
        #: Arms currently resident on some engine (0, 1 or 2).
        self.outstanding = 0
        self.settled = False
        self.outcome = ""
        self.crash_time: Optional[float] = None


class ResilientDispatcher:
    """Routes requests through the cluster under a resilience policy.

    One instance per cluster; wired by ``Cluster.__init__`` when it is
    given a policy.  The cluster's engines call
    back through ``engine.request_listener`` on every terminal request
    event, and ``Cluster.handle_engine_crash`` forwards displaced
    requests here.
    """

    def __init__(
        self,
        sim: "Simulator",
        cluster: "Cluster",
        policy: ResiliencePolicy,
        obs=None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.policy = policy
        self.obs = obs if obs is not None else NULL_REGISTRY
        o = self.obs
        self._obs_shed = o.counter("resilience.requests_shed_total")
        self._obs_retries = o.counter("resilience.retries_total")
        self._obs_hedges = o.counter("resilience.hedges_total")
        self._obs_hedge_wins = o.counter("resilience.hedge_wins_total")
        self._obs_timeouts = o.counter("resilience.deadline_timeouts_total")
        self._obs_crashes = o.counter("resilience.engine_crashes_total")
        self._obs_deferred = o.counter("resilience.deferred_total")
        self._trackers: Dict[int, _Tracker] = {}
        self.dispatched = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0
        self.retries = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.deadline_timeouts = 0
        self.deferred = 0
        self.crashes = 0
        #: Worst time from a crash to the completion of a request it
        #: displaced — the availability experiments' recovery metric.
        self.time_to_recovery_s = 0.0
        #: Simulated time of the last settlement (duration accounting).
        self.last_settle_s = 0.0
        for engine in cluster.engines:
            engine.request_listener = self._on_request_done

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest) -> None:
        """Accept one original request (at its arrival instant)."""
        self.dispatched += 1
        tracker = _Tracker(request)
        self._trackers[request.request_id] = tracker
        self._dispatch(tracker)

    def on_engine_crash(
        self,
        engine: InferenceEngine,
        displaced: List[InferenceRequest],
    ) -> None:
        """Re-route requests an engine crash displaced.

        Displaced *primaries* re-dispatch immediately (no retry budget
        consumed — the request did nothing wrong); displaced hedge
        clones are simply dropped, their primary is still in flight.
        """
        self.crashes += 1
        self._obs_crashes.add()
        now = self.sim.now
        for request in displaced:
            tracker = self._trackers.get(request.request_id)
            if tracker is None or tracker.settled:
                continue
            if (
                tracker.hedge_request is not None
                and request.request_id == tracker.hedge_request.request_id
            ):
                tracker.hedge_request = None
                tracker.hedge_engine = None
                tracker.outstanding -= 1
                continue
            tracker.crash_time = now
            tracker.outstanding -= 1
            self._dispatch(tracker)

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------
    def _queue_depth(self, engine: InferenceEngine) -> int:
        return engine.scheduler.pending_count + engine.scheduler.batch_size

    def _live_engines(self) -> List[InferenceEngine]:
        return [e for e in self.cluster.engines if e.up]

    def _dispatch(self, tracker: _Tracker) -> None:
        """Place the primary arm on an engine (or defer/shed)."""
        if tracker.settled:
            return
        tracker.generation += 1
        generation = tracker.generation
        live = self._live_engines()
        if not live:
            self._defer(tracker)
            return
        depth_of = self._queue_depth
        policy = self.policy
        if policy.max_queue_depth and all(
            depth_of(e) >= policy.max_queue_depth for e in live
        ):
            self._settle(tracker, "shed")
            return
        engine = min(live, key=lambda e: (depth_of(e), e.name))
        tracker.engine = engine
        tracker.outstanding += 1
        engine.submit(tracker.request)
        if not math.isinf(policy.deadline_s):
            self.sim.schedule(
                policy.deadline_s,
                lambda _event: self._on_deadline(tracker, generation),
                name=f"deadline-{tracker.request.request_id}",
            )
        if (
            policy.hedge_delay_s > 0
            and tracker.attempts == 0
            and not tracker.hedged
        ):
            self.sim.schedule(
                policy.hedge_delay_s,
                lambda _event: self._maybe_hedge(tracker, generation),
                name=f"hedge-{tracker.request.request_id}",
            )

    def _defer(self, tracker: _Tracker) -> None:
        """Every engine is down: hold the request until the first one
        restarts (its outage end is known — restarts are scheduled)."""
        self.deferred += 1
        self._obs_deferred.add()
        resume = min(e.down_until for e in self.cluster.engines)
        # The epsilon lands the re-dispatch strictly after the restart
        # wakeup at the same timestamp.
        delay = max(resume - self.sim.now, 0.0) + 1e-9
        generation = tracker.generation
        self.sim.schedule(
            delay,
            lambda _event: self._redispatch_if(tracker, generation),
            name=f"defer-{tracker.request.request_id}",
        )

    def _redispatch_if(self, tracker: _Tracker, generation: int) -> None:
        if tracker.settled or generation != tracker.generation:
            return
        self._dispatch(tracker)

    def _maybe_hedge(self, tracker: _Tracker, generation: int) -> None:
        if tracker.settled or tracker.hedged:
            return
        if generation != tracker.generation:
            return
        candidates = [
            e for e in self._live_engines() if e is not tracker.engine
        ]
        if not candidates:
            return
        depth_of = self._queue_depth
        engine = min(candidates, key=lambda e: (depth_of(e), e.name))
        clone = _fresh_copy(tracker.request)
        tracker.hedged = True
        tracker.hedge_request = clone
        tracker.hedge_engine = engine
        tracker.outstanding += 1
        self._trackers[clone.request_id] = tracker
        self.hedges += 1
        self._obs_hedges.add()
        engine.submit(clone)

    def _on_deadline(self, tracker: _Tracker, generation: int) -> None:
        if tracker.settled or generation != tracker.generation:
            return
        self.deadline_timeouts += 1
        self._obs_timeouts.add()
        self._cancel_arms(tracker)
        self._retry_or_fail(tracker)

    def _cancel_arms(self, tracker: _Tracker) -> None:
        if tracker.engine is not None:
            tracker.engine.cancel(tracker.request.request_id)
        if tracker.hedge_request is not None:
            if tracker.hedge_engine is not None:
                tracker.hedge_engine.cancel(tracker.hedge_request.request_id)
            tracker.hedge_request = None
            tracker.hedge_engine = None
        tracker.outstanding = 0

    def _retry_or_fail(self, tracker: _Tracker) -> None:
        policy = self.policy
        if tracker.attempts < policy.max_retries:
            tracker.attempts += 1
            self.retries += 1
            self._obs_retries.add()
            backoff = policy.retry_backoff_s * (2 ** (tracker.attempts - 1))
            tracker.generation += 1
            generation = tracker.generation
            self.sim.schedule(
                backoff,
                lambda _event: self._redispatch_if(tracker, generation),
                name=f"retry-{tracker.request.request_id}",
            )
            return
        self._settle(tracker, "failed")

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------
    def _on_request_done(self, context: RunningContext, outcome: str) -> None:
        tracker = self._trackers.get(context.request.request_id)
        if tracker is None or tracker.settled:
            return
        is_hedge = (
            tracker.hedge_request is not None
            and context.request.request_id
            == tracker.hedge_request.request_id
        )
        if outcome == "completed":
            if is_hedge:
                self.hedge_wins += 1
                self._obs_hedge_wins.add()
                if tracker.engine is not None:
                    tracker.engine.cancel(tracker.request.request_id)
            elif tracker.hedge_request is not None:
                if tracker.hedge_engine is not None:
                    tracker.hedge_engine.cancel(
                        tracker.hedge_request.request_id
                    )
            if tracker.crash_time is not None:
                recovery = self.sim.now - tracker.crash_time
                if recovery > self.time_to_recovery_s:
                    self.time_to_recovery_s = recovery
            self._settle(tracker, "completed")
            return
        # One arm failed terminally on its engine (KV-recovery budget
        # exhausted, or an unrecoverable crash teardown).
        tracker.outstanding -= 1
        if is_hedge:
            tracker.hedge_request = None
            tracker.hedge_engine = None
        if tracker.outstanding > 0:
            # The sibling arm is still in flight; let it race.
            return
        self._retry_or_fail(tracker)

    # ------------------------------------------------------------------
    # Settlement
    # ------------------------------------------------------------------
    def _settle(self, tracker: _Tracker, outcome: str) -> None:
        tracker.settled = True
        tracker.outcome = outcome
        tracker.generation += 1
        tracker.crash_time = None
        if outcome == "completed":
            self.completed += 1
        elif outcome == "failed":
            self.failed += 1
        else:
            self.shed += 1
            self._obs_shed.add()
        if self.sim.now > self.last_settle_s:
            self.last_settle_s = self.sim.now

    @property
    def settled(self) -> int:
        return self.completed + self.failed + self.shed
