"""Foundation-model inference workload modeling.

Everything Section 2 of the paper says about the workload is implemented
here, parameterized and testable:

- :mod:`~repro.workload.model` — model configurations (Llama2-70B and
  friends): weight bytes, KV-cache bytes per token, FLOPs per token.
- :mod:`~repro.workload.distributions` — seeded distributions, including
  prompt/output token-count distributions calibrated to the published
  Splitwise traces [37].
- :mod:`~repro.workload.requests` — inference request records and
  arrival-process generators (Poisson, bursty).
- :mod:`~repro.workload.phases` — the prefill/decode phase traffic
  equations: bytes read/written and FLOPs per phase.
- :mod:`~repro.workload.traces` — a JSONL trace format, synthetic trace
  generation (the production-trace substitute) and replay.
"""

from repro.workload.model import (
    GPT_CLASS_500B,
    LLAMA2_13B,
    LLAMA2_70B,
    LLAMA2_70B_MHA,
    PHI_3_MINI,
    ModelConfig,
)
from repro.workload.distributions import (
    Distribution,
    EmpiricalDistribution,
    ExponentialDistribution,
    FixedDistribution,
    LogNormalDistribution,
    ParetoDistribution,
    SPLITWISE_CODE,
    SPLITWISE_CONVERSATION,
    TokenLengthProfile,
)
from repro.workload.requests import (
    ArrivalProcess,
    BurstyArrivals,
    InferenceRequest,
    PoissonArrivals,
    RequestGenerator,
    SLAClass,
)
from repro.workload.phases import PhaseTraffic, decode_step_traffic, prefill_traffic
from repro.workload.speculative import (
    SpeculationConfig,
    speculative_decode_step_traffic,
    weight_read_bytes_per_token,
)
from repro.workload.mitigations import (
    MitigationConfig,
    mitigated_decode_traffic,
    read_bytes_per_token,
)
from repro.workload.conversations import (
    Session,
    Turn,
    generate_sessions,
    sessions_to_requests,
)
from repro.workload.traces import (
    TraceRecord,
    generate_trace,
    read_trace,
    replay_trace,
    write_trace,
)

__all__ = [
    "ArrivalProcess",
    "BurstyArrivals",
    "Distribution",
    "EmpiricalDistribution",
    "ExponentialDistribution",
    "FixedDistribution",
    "GPT_CLASS_500B",
    "InferenceRequest",
    "LLAMA2_13B",
    "LLAMA2_70B",
    "LLAMA2_70B_MHA",
    "LogNormalDistribution",
    "MitigationConfig",
    "ModelConfig",
    "PHI_3_MINI",
    "ParetoDistribution",
    "PhaseTraffic",
    "PoissonArrivals",
    "RequestGenerator",
    "SLAClass",
    "SPLITWISE_CODE",
    "Session",
    "SpeculationConfig",
    "Turn",
    "SPLITWISE_CONVERSATION",
    "TokenLengthProfile",
    "TraceRecord",
    "decode_step_traffic",
    "generate_sessions",
    "generate_trace",
    "sessions_to_requests",
    "mitigated_decode_traffic",
    "prefill_traffic",
    "read_bytes_per_token",
    "read_trace",
    "replay_trace",
    "speculative_decode_step_traffic",
    "weight_read_bytes_per_token",
    "write_trace",
]
