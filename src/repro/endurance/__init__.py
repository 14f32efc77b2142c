"""Endurance analysis: Figure 1 and device-lifetime modeling.

- :mod:`~repro.endurance.requirements` — the paper's Figure 1
  arithmetic: writes-per-cell required over a 5-year deployment by
  KV-cache traffic and by model-weight updates, vs the endurance of
  products and technologies.
- :mod:`~repro.endurance.lifetime` — device lifetime under a sustained
  write rate; DWPD-style accounting.
- :mod:`~repro.endurance.wearleveling` — wear-leveling algorithm
  evaluation on synthetic write streams (none / dynamic / static).
"""

from repro.endurance.requirements import (
    EnduranceRequirement,
    figure1_data,
    kv_cache_requirement,
    weight_update_requirement,
)
from repro.endurance.lifetime import (
    device_lifetime_s,
    drive_writes_per_day,
    sustainable_write_rate,
)
from repro.endurance.wearleveling import WearLevelingSimulator, WearStreamConfig

__all__ = [
    "EnduranceRequirement",
    "WearLevelingSimulator",
    "WearStreamConfig",
    "device_lifetime_s",
    "drive_writes_per_day",
    "figure1_data",
    "kv_cache_requirement",
    "sustainable_write_rate",
    "weight_update_requirement",
]
