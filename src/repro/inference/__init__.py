"""Inference-cluster simulation.

The paper characterizes foundation-model inference as the workload MRM
serves; this package is the executable form of that characterization —
an AI-accelerator cluster simulator detailed enough to measure the
quantities the paper argues from (memory-boundness, per-tier traffic,
token throughput, latency SLAs):

- :mod:`~repro.inference.accelerator` — accelerator configs (A100/H100/
  B200-class): peak FLOPs, memory capacity/bandwidth, efficiency factors.
- :mod:`~repro.inference.roofline` — the roofline timing model: a step
  takes ``max(compute time, memory time)``; classifies phases as
  compute- or memory-bound (E4).
- :mod:`~repro.inference.paging` — PagedAttention-style KV page
  allocation [22] with static virtual-to-physical mapping.
- :mod:`~repro.inference.kvcache` — per-context KV cache management on
  top of the pager, with prefix sharing [54].
- :mod:`~repro.inference.batching` — continuous (iteration-level)
  batching with admission control by free KV pages.
- :mod:`~repro.inference.engine` — one accelerator's serving loop as a
  discrete-event process; records TTFT/TBT/throughput and per-structure
  memory traffic.
- :mod:`~repro.inference.cluster` — multi-accelerator cluster with a
  dispatcher and aggregate metrics.
- :mod:`~repro.inference.analytic` — closed-form fluid-replay evaluator
  reproducing the cluster report ~100-1000x faster than the DES.
- :mod:`~repro.inference.sweep` — serving sweeps with a
  ``mode="des"|"analytic"`` switch and DES-vs-analytic cross-validation.
"""

from repro.inference.accelerator import (
    A100_80G,
    AcceleratorConfig,
    B200,
    H100_80G,
    MemoryTierSpec,
)
from repro.inference.roofline import (
    Boundedness,
    RooflineModel,
    StepTiming,
)
from repro.inference.paging import PagedAllocator, PageTable
from repro.inference.kvcache import KVCacheManager
from repro.inference.batching import BatchScheduler, RunningContext
from repro.inference.engine import EngineMetrics, InferenceEngine
from repro.inference.cluster import Cluster, ClusterReport
from repro.inference.splitwise import SplitReport, SplitwiseCluster
from repro.inference.power import (
    OperatingPoint,
    PowerModel,
    best_frequency_under_cap,
    power_capped_throughput,
)
from repro.inference.deployment import ModelSwapModel, SwapCost
from repro.inference.analytic import (
    UnsupportedScenario,
    analytic_cluster_report,
)
from repro.inference.sweep import (
    CROSS_VAL_METRICS,
    CROSS_VAL_TOLERANCE,
    SERVE_MODES,
    cross_validate,
    cross_validation_grid,
    evaluate,
    run_serve_sweep,
    serve_point,
)

__all__ = [
    "A100_80G",
    "AcceleratorConfig",
    "B200",
    "BatchScheduler",
    "Boundedness",
    "CROSS_VAL_METRICS",
    "CROSS_VAL_TOLERANCE",
    "Cluster",
    "ClusterReport",
    "EngineMetrics",
    "H100_80G",
    "InferenceEngine",
    "KVCacheManager",
    "MemoryTierSpec",
    "ModelSwapModel",
    "OperatingPoint",
    "SwapCost",
    "PageTable",
    "PagedAllocator",
    "PowerModel",
    "RooflineModel",
    "best_frequency_under_cap",
    "power_capped_throughput",
    "RunningContext",
    "SERVE_MODES",
    "SplitReport",
    "SplitwiseCluster",
    "StepTiming",
    "UnsupportedScenario",
    "analytic_cluster_report",
    "cross_validate",
    "cross_validation_grid",
    "evaluate",
    "run_serve_sweep",
    "serve_point",
]
