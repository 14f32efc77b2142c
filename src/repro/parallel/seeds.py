"""Per-point seed derivation for deterministic sweeps.

The engine's determinism contract is: *a sweep point's result depends
only on its configuration and its position in the sweep, never on which
worker process ran it or in what order*.  Randomness therefore cannot
come from a shared generator that workers would consume in scheduling
order.  Instead each point receives its own :class:`numpy.random.
SeedSequence`, spawned from the sweep's root seed:

    root = SeedSequence(root_seed)
    children = root.spawn(n_points)          # children[i] -> point i

``SeedSequence.spawn`` is documented to produce independent,
reproducible child entropy streams — the same root seed and index always
yield the same child, and children do not collide with the root or each
other.  Point functions build their generator with
``np.random.default_rng(seed_sequence)``.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence]


def spawn_seeds(root_seed: SeedLike, count: int) -> List[np.random.SeedSequence]:
    """Spawn ``count`` independent child seed sequences from ``root_seed``.

    Child ``i`` is a pure function of ``(root_seed, i)``: re-running the
    sweep, reordering workers, or splitting the grid across processes
    cannot change any point's randomness.
    """
    if count < 0:
        raise ValueError(f"cannot spawn {count} seeds")
    root = (
        root_seed
        if isinstance(root_seed, np.random.SeedSequence)
        else np.random.SeedSequence(root_seed)
    )
    return list(root.spawn(count))

