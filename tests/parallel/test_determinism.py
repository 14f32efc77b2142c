"""Serial-vs-parallel determinism: the sweep engine's core guarantee.

The same sweep run with ``REPRO_WORKERS=1`` and ``REPRO_WORKERS=4``
must produce *identical* result dicts — exact float equality, not
approx.  Float ``==`` here is the point of the test (whitelisted per
RL006): any drift means scheduling leaked into results.
"""

import numpy as np

from repro.parallel import run_sweep
from repro.parallel.sweep import WORKERS_ENV
from repro.sim import Histogram, Simulator, Timeout


def queueing_point(config, seed):
    """A real discrete-event simulation per point: a batch of jobs with
    seeded random service times drains through the kernel; latency
    statistics come back as floats that would expose any divergence in
    event ordering, RNG streams, or metric accumulation."""
    rate, jobs = config["rate"], config["jobs"]
    rng = np.random.default_rng(seed)
    sim = Simulator()
    latency = Histogram("latency")

    def job(delay):
        start = sim.now
        yield Timeout(delay)
        latency.observe(sim.now - start)

    for gap in rng.exponential(1.0 / rate, size=jobs):
        sim.spawn(job(float(gap)))
    sim.run()
    return {
        "rate": rate,
        "jobs": jobs,
        "mean_latency_s": latency.mean(),
        "p99_latency_s": latency.quantile(0.99),
        "end_time_s": sim.now,
    }


GRID = [
    {"rate": rate, "jobs": jobs}
    for rate in (0.5, 1.0, 2.0, 7.5)
    for jobs in (50, 200, 1000)
]


class TestSerialParallelDeterminism:
    def test_workers_1_and_4_bit_identical(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        serial = run_sweep(queueing_point, GRID, root_seed=2025)
        monkeypatch.setenv(WORKERS_ENV, "4")
        parallel = run_sweep(queueing_point, GRID, root_seed=2025)
        assert len(serial) == len(parallel) == len(GRID)
        for point_serial, point_parallel in zip(serial, parallel):
            # Exact equality on every float — whitelisted per RL006.
            assert point_serial == point_parallel  # repro-lint: disable=RL006

    def test_explicit_workers_match_env_workers(self):
        via_arg = run_sweep(queueing_point, GRID[:4], root_seed=9, workers=4)
        via_serial = run_sweep(queueing_point, GRID[:4], root_seed=9, workers=1)
        assert via_arg == via_serial  # repro-lint: disable=RL006

    def test_results_independent_of_worker_count(self):
        """2, 3 and 5 workers all agree with serial (not just 4)."""
        baseline = run_sweep(queueing_point, GRID[:6], root_seed=5, workers=1)
        for workers in (2, 3, 5):
            result = run_sweep(
                queueing_point, GRID[:6], root_seed=5, workers=workers
            )
            assert result == baseline  # repro-lint: disable=RL006

    def test_repeated_runs_identical(self):
        first = run_sweep(queueing_point, GRID[:4], root_seed=1, workers=4)
        second = run_sweep(queueing_point, GRID[:4], root_seed=1, workers=4)
        assert first == second  # repro-lint: disable=RL006
