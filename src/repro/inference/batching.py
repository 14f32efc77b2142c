"""Continuous (iteration-level) batching.

Batching is the main lever for weight-read reuse ("batching allows
weight reuse across requests [3]"), but it is bounded by latency
requirements — interactive requests cannot wait for a huge batch to
form.  :class:`BatchScheduler` implements the continuous-batching
discipline production servers use:

- requests join the running batch as soon as (a) a batch slot and (b)
  enough free KV pages exist (admission control);
- each iteration decodes every running context once;
- finished contexts leave immediately, freeing their slot and pages;
- the pending queue is prioritized by SLA class, FIFO within class.

The scheduler is pure decision logic (no clock, no device): the engine
drives it and executes its decisions, which keeps it unit-testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


from repro.inference.kvcache import KVCacheManager
from repro.workload.requests import InferenceRequest, SLAClass

#: Tokens of KV space a request must fit *beyond* its prompt before
#: admission (guards against immediate out-of-pages during decode).
ADMISSION_HEADROOM_TOKENS = 128

_SLA_PRIORITY = {
    SLAClass.INTERACTIVE: 0,
    SLAClass.THROUGHPUT: 1,
    SLAClass.BEST_EFFORT: 2,
}


@dataclass
class RunningContext:
    """A request currently being served."""

    request: InferenceRequest
    prefill_done_at: Optional[float] = None
    first_token_at: Optional[float] = None
    generated: int = 0
    finished_at: Optional[float] = None

    @property
    def context_id(self) -> int:
        return self.request.request_id

    @property
    def context_tokens(self) -> int:
        return self.request.prompt_tokens + self.generated

    @property
    def done(self) -> bool:
        return self.generated >= self.request.output_tokens


class BatchScheduler:
    """Admission + batch membership decisions.

    Parameters
    ----------
    kv:
        The KV-cache manager whose free pages gate admission.
    max_batch_size:
        Maximum contexts decoded per iteration.

    A request is admitted once its prompt plus
    :data:`ADMISSION_HEADROOM_TOKENS` fit the free KV pages.
    """

    def __init__(self, kv: KVCacheManager, max_batch_size: int = 16) -> None:
        if max_batch_size < 1:
            raise ValueError("max batch size must be >= 1")
        self.kv = kv
        self.max_batch_size = max_batch_size
        self._pending: List[InferenceRequest] = []
        self.running: Dict[int, RunningContext] = {}
        self.admitted = 0
        self.rejected_for_memory = 0

    # ------------------------------------------------------------------
    # Queue
    # ------------------------------------------------------------------
    def enqueue(self, request: InferenceRequest) -> None:
        self._pending.append(request)
        self._pending.sort(
            key=lambda r: (_SLA_PRIORITY[r.sla], r.arrival_time, r.request_id)
        )

    def remove_pending(self, request_id: int) -> Optional[InferenceRequest]:
        """Withdraw a queued request (hedging/retry cancellation).

        Returns the request, or None when it is not queued here (it may
        be running, finished, or on another engine).
        """
        for index, request in enumerate(self._pending):
            if request.request_id == request_id:
                return self._pending.pop(index)
        return None

    def pop_pending(self) -> List[InferenceRequest]:
        """Take the whole queue (an engine crash loses it); priority
        order, which nests arrival order within each SLA class."""
        pending = self._pending
        self._pending = []
        return pending

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def batch_size(self) -> int:
        return len(self.running)

    def has_work(self) -> bool:
        return bool(self._pending or self.running)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def try_admit(self) -> Optional[InferenceRequest]:
        """Pop the highest-priority pending request that fits.

        Returns None when the batch is full or nothing fits.  A request
        that does not fit *now* stays queued (head-of-line within its
        priority — we do not starve big requests by skipping them
        forever; only strictly-lower-priority requests may pass).
        """
        if len(self.running) >= self.max_batch_size:
            return None
        blocked_priority: Optional[int] = None
        for index, request in enumerate(self._pending):
            priority = _SLA_PRIORITY[request.sla]
            if blocked_priority is not None and priority == blocked_priority:
                continue
            if self.kv.can_admit(
                request.prompt_tokens, ADMISSION_HEADROOM_TOKENS
            ):
                self._pending.pop(index)
                self.admitted += 1
                return request
            if blocked_priority is None:
                blocked_priority = priority
                self.rejected_for_memory += 1
        return None

    def start(self, request: InferenceRequest) -> RunningContext:
        """Admit a request into the running set (after its prefill is
        scheduled by the engine)."""
        context = RunningContext(request=request)
        if context.context_id in self.running:
            raise ValueError(f"request {context.context_id} already running")
        self.running[context.context_id] = context
        return context

    def finish(self, context_id: int) -> RunningContext:
        context = self.running.pop(context_id, None)
        if context is None:
            raise KeyError(f"context {context_id} is not running")
        return context

    def decode_batch(self) -> List[RunningContext]:
        """Contexts to decode this iteration (prefilled, unfinished)."""
        return [
            c
            for c in self.running.values()
            if c.prefill_done_at is not None and not c.done
        ]
