"""Block-level access-stream characterization.

Section 2's summary claims, measured rather than asserted:

  "foundation model inference is mostly composed of very large,
  predictable memory reads, while writes are smaller and mostly append
  only.  Exact memory ranges to be read are known in advance, and large
  fractions of the memory are not overwritten for long periods of time."

:func:`synthesize_access_stream` expands a served request sequence into
page-granular accesses (weights scans, KV scans, KV appends) — the
stream an MRM device would actually see; :func:`characterize` computes:

- read:write byte ratio (global and per structure);
- sequentiality: fraction of bytes whose access continues the previous
  access of the same stream;
- in-place-update rate: fraction of written bytes overwriting previously
  written addresses (should be ~0 for KV, 1/redeploy for weights);
- overwrite intervals: time between successive writes to the same page;
- predictability: fraction of bytes whose address was deterministic
  given the stream's history (scans and appends are; random isn't).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Sequence, Tuple

from repro.sim.stats import Histogram
from repro.units import MiB
from repro.workload.model import ModelConfig
from repro.workload.requests import InferenceRequest

#: Time one synthesized step (a prefill or a decode iteration) advances.
STEP_TIME_S = 0.02


class AccessType(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class AccessRecord:
    """One page-granular access.

    ``stream`` identifies the logical object ("weights",
    ``"kv-<request id>"``); addresses are offsets within the stream.
    ``predicted`` marks accesses whose address a prefetcher with the
    stream's history would have known (sequential continuation or
    append at the write pointer).
    """

    time: float
    stream: str
    structure: str  # "weights" | "kv" | "other"
    type: AccessType
    address: int
    size: int
    predicted: bool = True


@dataclass
class CharacterizationReport:
    """Measured workload properties."""

    bytes_read: float = 0.0
    bytes_written: float = 0.0
    bytes_read_by_structure: Dict[str, float] = field(default_factory=dict)
    bytes_written_by_structure: Dict[str, float] = field(default_factory=dict)
    sequential_bytes: float = 0.0
    total_bytes: float = 0.0
    inplace_written_bytes: float = 0.0
    predicted_bytes: float = 0.0
    overwrite_intervals: Histogram = field(
        default_factory=lambda: Histogram("overwrite-interval")
    )

    @property
    def read_write_ratio(self) -> float:
        if self.bytes_written == 0:
            return float("inf")
        return self.bytes_read / self.bytes_written

    @property
    def sequentiality(self) -> float:
        if self.total_bytes == 0:
            return 0.0
        return self.sequential_bytes / self.total_bytes

    @property
    def inplace_update_fraction(self) -> float:
        if self.bytes_written == 0:
            return 0.0
        return self.inplace_written_bytes / self.bytes_written

    @property
    def predictability(self) -> float:
        if self.total_bytes == 0:
            return 0.0
        return self.predicted_bytes / self.total_bytes


def synthesize_access_stream(
    model: ModelConfig,
    requests: Sequence[InferenceRequest],
    page_bytes: int = 8 * MiB,
    batch_size: int = 8,
    include_weight_reads: bool = True,
) -> Iterator[AccessRecord]:
    """Expand served requests into the access stream an MRM sees.

    Requests are processed in arrival order in fixed batches (a
    simplification of continuous batching that preserves traffic
    shape).  Per decode step: one full weights scan for the batch, a
    full sequential KV scan per context, one KV append per context.
    Prefill: one weights scan plus the prompt's KV append burst.

    ``page_bytes`` sets record granularity (the MRM block size).
    """
    if page_bytes < 1 or batch_size < 1:
        raise ValueError("bad stream parameters")
    weights_pages = max(1, model.weights_bytes // page_bytes)
    now = 0.0

    def weights_scan(t: float) -> Iterator[AccessRecord]:
        for page in range(weights_pages):
            yield AccessRecord(
                time=t,
                stream="weights",
                structure="weights",
                type=AccessType.READ,
                address=page * page_bytes,
                size=page_bytes,
            )

    for start in range(0, len(requests), batch_size):
        batch = requests[start : start + batch_size]
        # Prefill each request in the batch.
        for request in batch:
            if include_weight_reads:
                yield from weights_scan(now)
            kv_bytes = model.kv_cache_bytes(request.prompt_tokens)
            yield from _kv_append(request, model, now, 0, kv_bytes, page_bytes)
            now += STEP_TIME_S
        # Decode lockstep until the longest output finishes.
        max_output = max(r.output_tokens for r in batch)
        for step in range(max_output):
            if include_weight_reads:
                yield from weights_scan(now)
            for request in batch:
                if step >= request.output_tokens:
                    continue
                context = request.prompt_tokens + step
                cache_bytes = model.kv_cache_bytes(context)
                stream = f"kv-{request.request_id}"
                # Sequential full-cache read.
                for offset in range(0, cache_bytes, page_bytes):
                    size = min(page_bytes, cache_bytes - offset)
                    yield AccessRecord(
                        time=now,
                        stream=stream,
                        structure="kv",
                        type=AccessType.READ,
                        address=offset,
                        size=size,
                    )
                # Append one vector at the write pointer.
                yield AccessRecord(
                    time=now,
                    stream=stream,
                    structure="kv",
                    type=AccessType.WRITE,
                    address=cache_bytes,
                    size=model.kv_bytes_per_token,
                )
            now += STEP_TIME_S


def _kv_append(
    request: InferenceRequest,
    model: ModelConfig,
    now: float,
    start: int,
    length: int,
    page_bytes: int,
) -> Iterator[AccessRecord]:
    stream = f"kv-{request.request_id}"
    for offset in range(start, start + length, page_bytes):
        size = min(page_bytes, start + length - offset)
        yield AccessRecord(
            time=now,
            stream=stream,
            structure="kv",
            type=AccessType.WRITE,
            address=offset,
            size=size,
        )


def characterize(
    records: Iterable[AccessRecord], page_bytes: int = 8 * MiB
) -> CharacterizationReport:
    """Measure the stream (single pass, page-granular write history)."""
    report = CharacterizationReport()
    last_end: Dict[str, int] = {}  # stream -> end of previous access
    watermark: Dict[str, int] = {}  # stream -> highest byte ever written
    #: (stream, page) -> last time any byte of the page was written
    written_pages: Dict[Tuple[str, int], float] = {}
    for record in records:
        report.total_bytes += record.size
        if record.predicted:
            report.predicted_bytes += record.size
        prev_end = last_end.get(record.stream)
        sequential = prev_end is None or record.address in (0, prev_end)
        if sequential:
            report.sequential_bytes += record.size
        last_end[record.stream] = record.address + record.size
        if record.type is AccessType.READ:
            report.bytes_read += record.size
            by = report.bytes_read_by_structure
            by[record.structure] = by.get(record.structure, 0.0) + record.size
        else:
            report.bytes_written += record.size
            by = report.bytes_written_by_structure
            by[record.structure] = by.get(record.structure, 0.0) + record.size
            # In-place update = writing below the stream's high-water
            # mark (appends into a partially-filled page are NOT
            # overwrites — the bytes were never written before).
            mark = watermark.get(record.stream, 0)
            overlap = min(mark - record.address, record.size)
            if overlap > 0:
                report.inplace_written_bytes += overlap
                first_page = record.address // page_bytes
                last_page = (record.address + overlap - 1) // page_bytes
                for page in range(first_page, last_page + 1):
                    previous = written_pages.get((record.stream, page))
                    if previous is not None:
                        report.overwrite_intervals.observe(
                            record.time - previous
                        )
            watermark[record.stream] = max(mark, record.address + record.size)
            first_page = record.address // page_bytes
            last_page = (record.address + record.size - 1) // page_bytes
            for page in range(first_page, last_page + 1):
                written_pages[(record.stream, page)] = record.time
    return report
