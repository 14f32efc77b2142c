"""Wear-leveling algorithm evaluation on synthetic write streams.

Section 4 moves wear-leveling into software; this module quantifies what
that policy is worth.  A :class:`WearLevelingSimulator` drives a skewed
logical write stream (Zipf-hot addresses, the worst case for wear) at a
fixed physical block pool under three policies:

- ``"none"`` — logical address = physical block (direct map);
- ``"dynamic"`` — remap each write to the least-worn free block
  (what the MRM controller's zone allocation achieves);
- ``"static"`` — dynamic plus periodic cold-data rotation: the
  coldest-resident block is forcibly remapped when imbalance (max/mean
  wear) reaches :data:`ROTATION_THRESHOLD` (classic static
  wear-leveling [7]).

Metric: wear imbalance (max/mean) and effective lifetime multiplier
versus the no-leveling baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

#: Wear imbalance at which the static policy forces a rotation.
ROTATION_THRESHOLD = 2.0


@dataclass(frozen=True)
class WearStreamConfig:
    """Shape of the synthetic logical write stream."""

    num_blocks: int = 256
    writes: int = 50_000
    zipf_s: float = 1.2  # skew; >1 is heavily hot-spotted
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_blocks < 2 or self.writes < 1:
            raise ValueError("need >= 2 blocks and >= 1 write")
        if self.zipf_s <= 1.0:
            raise ValueError("numpy's zipf needs s > 1")


class WearLevelingSimulator:
    """Run one policy over a synthetic stream and report wear stats."""

    POLICIES = ("none", "dynamic", "static")

    def __init__(self, config: WearStreamConfig, policy: str = "dynamic") -> None:
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        self.config = config
        self.policy = policy
        self.wear = np.zeros(config.num_blocks, dtype=np.int64)
        #: logical -> physical mapping (identity to start)
        self.mapping = np.arange(config.num_blocks)
        self.rotations = 0

    def _logical_stream(self) -> np.ndarray:
        rng = np.random.default_rng(self.config.seed)
        draws = rng.zipf(self.config.zipf_s, size=self.config.writes)
        return (draws - 1) % self.config.num_blocks

    def run(self) -> Dict[str, float]:
        """Execute the stream; returns the wear report."""
        stream = self._logical_stream()
        if self.policy == "none":
            np.add.at(self.wear, stream % self.config.num_blocks, 1)
        else:
            for logical in stream:
                self._write(int(logical))
        return self.report()

    def _write(self, logical: int) -> None:
        physical = int(self.mapping[logical])
        self.wear[physical] += 1
        if self.policy == "static":
            self._maybe_rotate(logical)
        elif self.policy == "dynamic":
            # Remap this logical block to the least-worn physical block,
            # swapping with whoever holds it (free-list abstraction).
            self._remap_to_coolest(logical)

    def _remap_to_coolest(self, logical: int) -> None:
        coolest = int(np.argmin(self.wear))
        current = int(self.mapping[logical])
        if coolest == current:
            return
        holder = int(np.where(self.mapping == coolest)[0][0])
        self.mapping[logical], self.mapping[holder] = (
            self.mapping[holder],
            self.mapping[logical],
        )

    def _maybe_rotate(self, logical: int) -> None:
        mean = self.wear.mean()
        if mean <= 0:
            return
        if self.wear.max() / mean < ROTATION_THRESHOLD:
            self._remap_to_coolest(logical)
            return
        # Forced rotation: move the hottest logical block onto the
        # coldest physical block and vice versa.
        hottest_physical = int(np.argmax(self.wear))
        coldest_physical = int(np.argmin(self.wear))
        hot_logical = int(np.where(self.mapping == hottest_physical)[0][0])
        cold_logical = int(np.where(self.mapping == coldest_physical)[0][0])
        self.mapping[hot_logical], self.mapping[cold_logical] = (
            self.mapping[cold_logical],
            self.mapping[hot_logical],
        )
        self.rotations += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def imbalance(self) -> float:
        mean = self.wear.mean()
        if mean <= 0:
            return 1.0
        return float(self.wear.max() / mean)

    def lifetime_multiplier(self) -> float:
        """Device life vs the perfectly-skewless ideal: 1/normalized-max.

        With total writes W over B blocks, ideal peak wear is W/B; the
        policy's peak wear determines when the first block dies, so the
        multiplier is ideal-peak / observed-peak (<= 1.0).
        """
        peak = float(self.wear.max())
        if peak <= 0:
            return 1.0
        ideal_peak = self.wear.sum() / len(self.wear)
        return ideal_peak / peak

    def report(self) -> Dict[str, float]:
        return {
            "policy": self.policy,
            "writes": float(self.wear.sum()),
            "max_wear": float(self.wear.max()),
            "mean_wear": float(self.wear.mean()),
            "imbalance": self.imbalance(),
            "lifetime_multiplier": self.lifetime_multiplier(),
            "rotations": float(self.rotations),
        }


def compare_policies(config: Optional[WearStreamConfig] = None) -> List[Dict[str, float]]:
    """Run all three policies on the same stream (same seed)."""
    config = config or WearStreamConfig()
    return [
        WearLevelingSimulator(config, policy=policy).run()
        for policy in WearLevelingSimulator.POLICIES
    ]
