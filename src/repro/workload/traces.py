"""Trace files: the production-trace substitute.

The paper's workload numbers derive from production serving traces we
cannot have (Azure-internal).  This module provides the closest
reproducible equivalent:

- a simple JSONL *trace format* (one request per line: arrival time,
  prompt tokens, output tokens, SLA class);
- :func:`generate_trace` — synthesize a trace from a
  :class:`~repro.workload.requests.RequestGenerator` (Splitwise-shaped
  by default);
- :func:`read_trace` / :func:`write_trace` — round-trip traces to disk
  so experiments are replayable and shareable;
- :func:`replay_trace` — turn records back into
  :class:`~repro.workload.requests.InferenceRequest` objects, optionally
  time-scaled (rate multiplier) for load sweeps.

Keeping traces as files (rather than regenerating inline) is what makes
"trace-driven" evaluation honest: every experiment in EXPERIMENTS.md
names the trace parameters it ran with.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

from repro.workload.model import ModelConfig
from repro.workload.requests import (
    InferenceRequest,
    PoissonArrivals,
    RequestGenerator,
    SLAClass,
)
from repro.workload.distributions import SPLITWISE_CONVERSATION, TokenLengthProfile


@dataclass(frozen=True)
class TraceRecord:
    """One line of a trace file."""

    arrival_time: float
    prompt_tokens: int
    output_tokens: int
    sla: str = SLAClass.INTERACTIVE.value

    def to_request(self) -> InferenceRequest:
        return InferenceRequest(
            arrival_time=self.arrival_time,
            prompt_tokens=self.prompt_tokens,
            output_tokens=self.output_tokens,
            sla=SLAClass(self.sla),
        )


def generate_trace(
    model: ModelConfig,
    profile: Optional[TokenLengthProfile] = None,
    arrivals: Optional[PoissonArrivals] = None,
    duration_s: Optional[float] = 60.0,
    count: Optional[int] = None,
    sla_mix: Optional[dict] = None,
    seed: int = 0,
) -> List[TraceRecord]:
    """Synthesize a trace (Splitwise-conversation shape by default)."""
    generator = RequestGenerator(
        profile=profile or SPLITWISE_CONVERSATION,
        arrivals=arrivals or PoissonArrivals(rate_per_s=1.0),
        model=model,
        sla_mix=sla_mix,
        seed=seed,
    )
    return [
        TraceRecord(
            arrival_time=req.arrival_time,
            prompt_tokens=req.prompt_tokens,
            output_tokens=req.output_tokens,
            sla=req.sla.value,
        )
        for req in generator.generate(duration_s=duration_s, count=count)
    ]


def write_trace(records: Iterable[TraceRecord], path: Union[str, Path]) -> int:
    """Write records as JSONL; returns the number written."""
    path = Path(path)
    count = 0
    with path.open("w") as fh:
        for record in records:
            fh.write(json.dumps(asdict(record)) + "\n")
            count += 1
    return count


def read_trace(path: Union[str, Path]) -> List[TraceRecord]:
    """Read a JSONL trace; validates fields line by line."""
    path = Path(path)
    records: List[TraceRecord] = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                records.append(TraceRecord(**payload))
            except (json.JSONDecodeError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad trace line: {exc}") from exc
    return records


def replay_trace(
    records: Iterable[TraceRecord], rate_multiplier: float = 1.0
) -> Iterator[InferenceRequest]:
    """Yield requests from records, optionally compressing arrivals.

    ``rate_multiplier=2`` replays the trace at twice the original load
    (arrival gaps halved) — the standard knob for load sweeps.
    """
    if rate_multiplier <= 0:
        raise ValueError("rate multiplier must be positive")
    for record in records:
        request = record.to_request()
        request.arrival_time = record.arrival_time / rate_multiplier
        yield request
