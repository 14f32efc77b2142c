"""Phase-split serving (Splitwise [37]).

The paper's workload numbers come from Splitwise, which splits serving
across machine pools: *prefill machines* run the compute-bound prompt
phase, then ship the prompt's KV cache over the interconnect to *decode
machines* that run the memory-bound token loop.  This module implements
that architecture on the DES kernel so the reproduction can measure the
phase asymmetry the paper leans on (and so phase-splitting itself can
be compared against mixed serving, ablation A5).

Components:

- :class:`PrefillPool` — machines that only prefill: requests queue
  FIFO, each runs its prompt at roofline speed, then the KV transfer to
  the chosen decode machine is simulated at ``interconnect_bandwidth``.
- :class:`DecodePool` — machines that only decode: continuous batching
  over transferred contexts.
- :class:`SplitwiseCluster` — wires the two pools, dispatches
  join-shortest-queue in each, and reports combined metrics
  (:class:`SplitReport`), including per-pool utilization and the KV
  bytes moved across the interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, List, Optional

from repro.inference.accelerator import AcceleratorConfig
from repro.inference.engine import _quantile_or_nan
from repro.inference.kvcache import KVCacheManager
from repro.inference.roofline import RooflineModel
from repro.sim import Histogram, Simulator, Timeout
from repro.workload.model import ModelConfig
from repro.workload.phases import decode_step_traffic_batch, prefill_traffic
from repro.workload.requests import InferenceRequest


@dataclass
class _TransferredContext:
    """A prefilled context handed to a decode machine."""

    request: InferenceRequest
    prefill_done_at: float
    arrived_at_decode: float
    generated: int = 0
    first_token_at: Optional[float] = None

    @property
    def context_tokens(self) -> int:
        return self.request.prompt_tokens + self.generated

    @property
    def done(self) -> bool:
        return self.generated >= self.request.output_tokens


class PrefillMachine:
    """One prefill-only machine: FIFO prompt processing + KV push."""

    def __init__(
        self,
        sim: Simulator,
        accelerator: AcceleratorConfig,
        model: ModelConfig,
        cluster: "SplitwiseCluster",
        name: str,
    ) -> None:
        self.sim = sim
        self.roofline = RooflineModel(accelerator)
        self.model = model
        self.cluster = cluster
        self.name = name
        self.queue: List[InferenceRequest] = []
        self.busy_time = 0.0
        self._wakeup = sim.event(name=f"{name}-wakeup")
        self._draining = False
        sim.spawn(self._loop(), name=name)

    def submit(self, request: InferenceRequest) -> None:
        self.queue.append(request)
        self._wake()

    def drain(self) -> None:
        self._draining = True
        self._wake()

    def _wake(self) -> None:
        if not self._wakeup.fired and not self._wakeup.scheduled:
            self.sim.trigger(self._wakeup)

    @property
    def load(self) -> int:
        return len(self.queue)

    def _loop(self) -> Generator:
        while True:
            if not self.queue:
                if self._draining:
                    return
                yield self._wakeup
                self._wakeup = self.sim.event(name=f"{self.name}-wakeup")
                continue
            request = self.queue.pop(0)
            traffic = prefill_traffic(self.model, request.prompt_tokens)
            timing = self.roofline.time_step(
                traffic.flops,
                {"hbm": traffic.bytes_read},
                {"hbm": traffic.bytes_written},
            )
            self.busy_time += timing.duration_s
            yield Timeout(timing.duration_s)
            # Ship the KV cache to the least-loaded decode machine.
            kv_bytes = self.model.kv_cache_bytes(request.prompt_tokens)
            transfer_s = kv_bytes / self.cluster.interconnect_bandwidth
            self.cluster.kv_transfer_bytes += kv_bytes
            yield Timeout(transfer_s)
            self.cluster.deliver_to_decode(request, self.sim.now)


class DecodeMachine:
    """One decode-only machine: continuous batching over contexts."""

    def __init__(
        self,
        sim: Simulator,
        accelerator: AcceleratorConfig,
        model: ModelConfig,
        cluster: "SplitwiseCluster",
        max_batch_size: int,
        name: str,
    ) -> None:
        self.sim = sim
        self.roofline = RooflineModel(accelerator)
        self.model = model
        self.cluster = cluster
        self.max_batch_size = max_batch_size
        self.name = name
        kv_capacity = (
            accelerator.tier("hbm").capacity_bytes - model.weights_bytes
        )
        if kv_capacity <= 0:
            raise ValueError(f"{name}: weights do not fit the decode machine")
        self.kv = KVCacheManager(model, kv_capacity)
        self.pending: List[_TransferredContext] = []
        self.running: List[_TransferredContext] = []
        self.busy_time = 0.0
        self._wakeup = sim.event(name=f"{name}-wakeup")
        self._draining = False
        sim.spawn(self._loop(), name=name)

    def submit(self, context: _TransferredContext) -> None:
        self.pending.append(context)
        self._wake()

    def drain(self) -> None:
        self._draining = True
        self._wake()

    def _wake(self) -> None:
        if not self._wakeup.fired and not self._wakeup.scheduled:
            self.sim.trigger(self._wakeup)

    @property
    def load(self) -> int:
        return len(self.pending) + len(self.running)

    def _admit(self) -> None:
        while self.pending and len(self.running) < self.max_batch_size:
            context = self.pending[0]
            if not self.kv.can_admit(context.request.prompt_tokens, 128):
                break
            self.pending.pop(0)
            self.kv.register(
                context.request.request_id, context.request.prompt_tokens
            )
            self.running.append(context)

    def _loop(self) -> Generator:
        cluster = self.cluster
        while True:
            self._admit()
            if not self.running:
                if self._draining and not self.pending:
                    return
                if self.pending:
                    raise RuntimeError(
                        f"{self.name}: contexts stuck unadmitted (KV pool "
                        f"too small for the prompt)"
                    )
                yield self._wakeup
                self._wakeup = self.sim.event(name=f"{self.name}-wakeup")
                continue
            lengths = [c.context_tokens for c in self.running]
            traffic = decode_step_traffic_batch(self.model, lengths)
            timing = self.roofline.time_step(
                traffic.flops,
                {"hbm": traffic.bytes_read},
                {"hbm": traffic.bytes_written},
            )
            self.busy_time += timing.duration_s
            yield Timeout(timing.duration_s)
            now = self.sim.now
            finished: List[_TransferredContext] = []
            self.kv.append_batch([c.request.request_id for c in self.running])
            for context in self.running:
                context.generated += 1
                cluster.tokens_generated += 1
                cluster.tbt.observe(timing.duration_s)
                if context.first_token_at is None:
                    context.first_token_at = now
                    cluster.ttft.observe(now - context.request.arrival_time)
                if context.done:
                    finished.append(context)
            for context in finished:
                self.running.remove(context)
                self.kv.release(context.request.request_id)
                cluster.requests_completed += 1


@dataclass
class SplitReport:
    """Results of one phase-split run."""

    requests_completed: int
    tokens_generated: int
    duration_s: float
    ttft_p50_s: float
    ttft_p99_s: float
    tbt_p50_s: float
    kv_transfer_bytes: float
    prefill_utilization: float
    decode_utilization: float

    @property
    def throughput_tokens_per_s(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.tokens_generated / self.duration_s


class SplitwiseCluster:
    """Prefill pool + decode pool + interconnect."""

    def __init__(
        self,
        sim: Simulator,
        accelerator: AcceleratorConfig,
        model: ModelConfig,
        num_prefill: int = 1,
        num_decode: int = 1,
        max_batch_size: int = 16,
        interconnect_bandwidth: float = 100e9,  # ~800 Gb/s fabric
    ) -> None:
        if num_prefill < 1 or num_decode < 1:
            raise ValueError("need at least one machine per pool")
        if interconnect_bandwidth <= 0:
            raise ValueError("interconnect bandwidth must be positive")
        self.sim = sim
        self.model = model
        self.interconnect_bandwidth = interconnect_bandwidth
        self.requests_completed = 0
        self.tokens_generated = 0
        self.kv_transfer_bytes = 0.0
        self.ttft = Histogram("ttft_s")
        self.tbt = Histogram("tbt_s")
        self.prefill_pool = [
            PrefillMachine(sim, accelerator, model, self, f"prefill-{i}")
            for i in range(num_prefill)
        ]
        self.decode_pool = [
            DecodeMachine(
                sim, accelerator, model, self, max_batch_size, f"decode-{i}"
            )
            for i in range(num_decode)
        ]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest) -> None:
        machine = min(self.prefill_pool, key=lambda m: (m.load, m.name))
        machine.submit(request)

    def deliver_to_decode(self, request: InferenceRequest, now: float) -> None:
        context = _TransferredContext(
            request=request, prefill_done_at=now, arrived_at_decode=now
        )
        machine = min(self.decode_pool, key=lambda m: (m.load, m.name))
        machine.submit(context)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, requests: Iterable[InferenceRequest]) -> SplitReport:
        submitted = 0
        for request in requests:
            self.sim.schedule_at(
                request.arrival_time,
                lambda _ev, r=request: self.submit(r),
            )
            submitted += 1
        self.sim.run()
        for machine in self.prefill_pool:
            machine.drain()
        self.sim.run()
        for machine in self.decode_pool:
            machine.drain()
        self.sim.run()
        missing = submitted - self.requests_completed
        if missing:
            raise RuntimeError(f"{missing} requests never completed")
        return self.report()

    def report(self) -> SplitReport:
        duration = self.sim.now
        prefill_busy = sum(m.busy_time for m in self.prefill_pool)
        decode_busy = sum(m.busy_time for m in self.decode_pool)
        return SplitReport(
            requests_completed=self.requests_completed,
            tokens_generated=self.tokens_generated,
            duration_s=duration,
            ttft_p50_s=_quantile_or_nan(self.ttft, 0.5),
            ttft_p99_s=_quantile_or_nan(self.ttft, 0.99),
            tbt_p50_s=_quantile_or_nan(self.tbt, 0.5),
            kv_transfer_bytes=self.kv_transfer_bytes,
            prefill_utilization=(
                prefill_busy / (duration * len(self.prefill_pool))
                if duration
                else 0.0
            ),
            decode_utilization=(
                decode_busy / (duration * len(self.decode_pool))
                if duration
                else 0.0
            ),
        )
