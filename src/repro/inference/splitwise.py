"""Phase-split serving (Splitwise [37]).

The paper's workload numbers come from Splitwise, which splits serving
across machine pools: *prefill machines* run the compute-bound prompt
phase, then ship the prompt's KV cache over the interconnect to *decode
machines* that run the memory-bound token loop.  This module implements
that architecture on the DES kernel so the reproduction can measure the
phase asymmetry the paper leans on (and so phase-splitting itself can
be compared against mixed serving, ablation A5).

Components:

- :class:`PrefillMachine` — a machine that only prefills: requests
  queue FIFO, each runs its prompt at roofline speed, then the KV
  transfer to the chosen decode engine is simulated at
  ``interconnect_bandwidth``.
- The decode pool is a :class:`~repro.inference.cluster.Cluster`: each
  machine runs :class:`~repro.inference.engine.InferenceEngine`, the
  loop mixed serving runs on.  A transferred request is submitted
  ``prefilled``: admission registers its prompt KV and runs no prefill
  step, so it joins the next decode leap.
- :class:`SplitwiseCluster` — wires the two pools, dispatches
  join-shortest-queue in each, and reports combined metrics
  (:class:`SplitReport`), including per-pool utilization and the KV
  bytes moved across the interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, List

from repro.inference.accelerator import AcceleratorConfig
from repro.inference.cluster import Cluster
from repro.inference.roofline import RooflineModel
from repro.sim import Simulator, Timeout
from repro.workload.model import ModelConfig
from repro.workload.phases import prefill_traffic
from repro.workload.requests import InferenceRequest


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
            self.cluster.deliver_to_decode(request)


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
    """Prefill machines + decode engines + interconnect."""

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
        self.kv_transfer_bytes = 0.0
        self.prefill_pool = [
            PrefillMachine(sim, accelerator, model, self, f"prefill-{i}")
            for i in range(num_prefill)
        ]
        self.decode = Cluster(
            sim,
            accelerator,
            model,
            num_engines=num_decode,
            max_batch_size=max_batch_size,
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest) -> None:
        machine = min(self.prefill_pool, key=lambda m: (m.load, m.name))
        machine.submit(request)

    def deliver_to_decode(self, request: InferenceRequest) -> None:
        """Hand a prefilled request to the decode engine with the
        shortest queue (the mixed cluster's JSQ)."""
        self.decode._least_loaded().submit(request, prefilled=True)

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
        for engine in self.decode.engines:
            engine.drain()
        self.sim.run()
        report = self.report()
        missing = submitted - report.requests_completed
        if missing:
            raise RuntimeError(f"{missing} requests never completed")
        return report

    def report(self) -> SplitReport:
        decode = self.decode.report()
        duration = decode.duration_s
        prefill_busy = sum(m.busy_time for m in self.prefill_pool)
        decode_busy = sum(
            e.summarize().busy_time_s for e in self.decode.engines
        )
        return SplitReport(
            requests_completed=decode.requests_completed,
            tokens_generated=decode.tokens_generated,
            duration_s=duration,
            ttft_p50_s=decode.ttft_p50_s,
            ttft_p99_s=decode.ttft_p99_s,
            tbt_p50_s=decode.tbt_p50_s,
            kv_transfer_bytes=self.kv_transfer_bytes,
            prefill_utilization=(
                prefill_busy / (duration * len(self.prefill_pool))
                if duration
                else 0.0
            ),
            decode_utilization=(
                decode_busy / (duration * len(self.decode.engines))
                if duration
                else 0.0
            ),
        )
