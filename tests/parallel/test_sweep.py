"""Unit tests for the deterministic fan-out engine."""

import os

import numpy as np
import pytest

from repro.parallel import resolve_workers, run_sweep, spawn_seeds
from repro.parallel.sweep import WORKERS_ENV


def square_point(point, seed):
    return {"point": point, "square": point * point}


def pid_point(point, seed):
    return os.getpid()


def _identity(seed):
    return (seed.entropy, tuple(seed.spawn_key))


def failing_point(point, seed):
    if point == 3:
        raise RuntimeError("boom at point 3")
    return point


class TestSeeds:
    def test_spawn_is_reproducible(self):
        first = spawn_seeds(42, 5)
        second = spawn_seeds(42, 5)
        assert [s.entropy for s in first] == [s.entropy for s in second]
        assert [s.spawn_key for s in first] == [s.spawn_key for s in second]

    def test_children_are_distinct(self):
        identities = [_identity(s) for s in spawn_seeds(0, 64)]
        assert len(set(identities)) == 64

    def test_root_seed_changes_children(self):
        a = [_identity(s) for s in spawn_seeds(1, 4)]
        b = [_identity(s) for s in spawn_seeds(2, 4)]
        assert not set(a) & set(b)

    def test_streams_differ_per_point(self):
        draws = [
            np.random.default_rng(s).random() for s in spawn_seeds(7, 8)
        ]
        assert len(set(draws)) == 8

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(2) == 2

    def test_env_respected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "6")
        assert resolve_workers() == 6

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestRunSweep:
    def test_results_in_grid_order(self):
        points = [5, 1, 4, 2, 3]
        values = run_sweep(square_point, points, workers=4)
        assert [v["point"] for v in values] == points

    def test_empty_grid(self):
        assert run_sweep(square_point, [], workers=4) == []

    def test_single_point_stays_serial(self):
        assert run_sweep(pid_point, [9], workers=4) == [os.getpid()]

    def test_parallel_actually_fans_out(self):
        pids = run_sweep(pid_point, list(range(6)), workers=2)
        assert len(pids) == 6
        assert os.getpid() not in pids

    def test_exceptions_propagate(self):
        with pytest.raises(RuntimeError, match="boom at point 3"):
            run_sweep(failing_point, [1, 2, 3, 4], workers=2)
        with pytest.raises(RuntimeError, match="boom at point 3"):
            run_sweep(failing_point, [1, 2, 3, 4], workers=1)
