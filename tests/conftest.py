"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mrm import MRMConfig, MRMDevice
from repro.devices.catalog import RRAM_WEEBIT
from repro.sim import Simulator
from repro.units import MiB
from repro.workload.model import LLAMA2_13B, LLAMA2_70B


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden snapshots under tests/obs/golden/ "
             "instead of asserting against them",
    )


@pytest.fixture
def update_golden(request) -> bool:
    return request.config.getoption("--update-golden")


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def small_mrm() -> MRMDevice:
    """A small MRM device: 4 zones x 8 blocks x 1 MiB."""
    config = MRMConfig(
        capacity_bytes=32 * MiB,
        block_bytes=1 * MiB,
        blocks_per_zone=8,
    )
    return MRMDevice(config)


@pytest.fixture
def model_70b():
    return LLAMA2_70B


@pytest.fixture
def model_13b():
    return LLAMA2_13B
