"""The deterministic fan-out engine for simulation sweeps.

:func:`run_sweep` applies a *pure point function* ``fn(point, seed)`` to
every configuration in a grid, optionally across worker processes, and
returns results in grid order.  The contract that makes parallelism safe
here:

1. **Purity** — a point's result depends only on ``(point, seed)``.
   The function must be picklable (defined at module top level) and must
   not mutate shared state.
2. **Positional seeds** — ``seed`` is a ``np.random.SeedSequence``
   spawned from the root seed by the point's *index*
   (:mod:`repro.parallel.seeds`), so randomness never depends on worker
   scheduling.
3. **Order-preserving collection** — results are returned in the order
   of ``points`` regardless of completion order.

Together these guarantee serial (``workers=1``) and parallel
(``workers=N``) runs are **bit-identical** — the property
``tests/parallel/test_determinism.py`` asserts with exact float
equality.

Worker count resolution (first match wins): explicit ``workers``
argument, the ``REPRO_WORKERS`` environment variable, serial.  Platforms
without the ``fork`` start method fall back to serial execution rather
than risk re-import divergence under ``spawn``.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.seeds import SeedLike, spawn_seeds

#: Environment variable that sets the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

PointFn = Callable[[Any, np.random.SeedSequence], Any]


def resolve_workers(workers: Optional[int] = None) -> int:
    """The worker count a sweep will use.

    Precedence: explicit argument, then ``REPRO_WORKERS``, then 1
    (serial).  Values below 1 are rejected — a sweep always runs.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError as exc:
                raise ValueError(
                    f"{WORKERS_ENV}={raw!r} is not an integer"
                ) from exc
        else:
            workers = 1
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The fork start-method context, or None where unsupported."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _call_point(payload: Tuple[PointFn, Any, np.random.SeedSequence]) -> Any:
    """Worker-side trampoline (top level so it pickles)."""
    fn, point, seed = payload
    return fn(point, seed)


def run_sweep(
    fn: PointFn,
    points: Sequence[Any],
    root_seed: SeedLike = 0,
    workers: Optional[int] = None,
) -> List[Any]:
    """Evaluate ``fn`` over ``points``; results in grid order.

    Point ``i`` gets the ``i``-th seed spawned from ``root_seed``.  The
    points fan out over forked worker processes when more than one
    worker and more than one point make it worthwhile.
    """
    workers = resolve_workers(workers)
    points = list(points)
    seeds = spawn_seeds(root_seed, len(points))
    payloads = [(fn, point, seed) for point, seed in zip(points, seeds)]
    context = _fork_context()
    if workers > 1 and len(payloads) > 1 and context is not None:
        max_workers = min(workers, len(payloads))
        chunksize = max(1, len(payloads) // (max_workers * 4))
        with ProcessPoolExecutor(
            max_workers=max_workers, mp_context=context
        ) as executor:
            return list(
                executor.map(_call_point, payloads, chunksize=chunksize)
            )
    return [_call_point(payload) for payload in payloads]
