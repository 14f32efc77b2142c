"""Integration: KV caches living on an actual MRM device while an
inference trace is served.

This ties the layers together: requests from the Splitwise-shaped
generator create/append/expire KV data on an
:class:`~repro.core.controller.MRMController`-managed device, with the
refresh scheduler deciding expiry at each context's end — the full
"retention matched to data lifetime" loop of the paper.
"""

import pytest

from repro.core.controller import MRMController
from repro.core.mrm import MRMConfig, MRMDevice
from repro.units import GiB, MiB
from repro.workload.model import LLAMA2_13B
from repro.workload.traces import generate_trace, replay_trace


@pytest.fixture
def setup():
    config = MRMConfig(
        capacity_bytes=8 * GiB,
        block_bytes=8 * MiB,
        blocks_per_zone=16,
        min_retention_s=1.0,
    )
    device = MRMDevice(config)
    controller = MRMController(device)
    return device, controller


def serve_trace_on_mrm(controller, model, requests, context_lifetime_s=120.0):
    """Replay requests: write each context's KV with retention matched
    to its service time, read the cache per decode step, expire at end."""
    now = 0.0
    for request in requests:
        now = max(now, request.arrival_time)
        # Reclaim whatever expired while we were between requests.
        controller.tick(now=now)
        # Prefill: the prompt's KV, retention = expected context lifetime.
        kv_bytes = model.kv_cache_bytes(
            request.prompt_tokens + request.output_tokens
        )
        blocks = controller.write(kv_bytes, context_lifetime_s, now=now)
        # Decode: each step reads the cache sequentially.
        for _step in range(min(request.output_tokens, 30)):
            controller.read(blocks, now=now)
            now += 0.05
        controller.tick(now=now)
    return now


class TestMRMServing:
    def test_trace_serves_and_recycles(self, setup):
        device, controller = setup
        trace = generate_trace(LLAMA2_13B, count=40, duration_s=None, seed=5)
        requests = list(replay_trace(records=trace, rate_multiplier=0.001))
        end = serve_trace_on_mrm(controller, LLAMA2_13B, requests)
        # Everything eventually expires and zones recycle.
        controller.tick(now=end + 1000.0)
        assert controller.stats.zones_reclaimed > 0
        assert controller.scheduler.stats.expired > 0
        # Read-dominated, as the paper demands.
        assert controller.stats.bytes_read > 10 * controller.stats.bytes_written

    def test_no_refresh_energy_for_expiring_data(self, setup):
        """Retention matched to lifetime: zero refresh housekeeping."""
        device, controller = setup
        trace = generate_trace(LLAMA2_13B, count=20, duration_s=None, seed=6)
        requests = list(replay_trace(trace, rate_multiplier=0.001))
        end = serve_trace_on_mrm(controller, LLAMA2_13B, requests)
        controller.tick(now=end + 1000.0)
        assert controller.housekeeping_energy_j == 0.0

    def test_wear_stays_level(self, setup):
        device, controller = setup
        trace = generate_trace(LLAMA2_13B, count=60, duration_s=None, seed=7)
        requests = list(replay_trace(trace, rate_multiplier=0.001))
        serve_trace_on_mrm(controller, LLAMA2_13B, requests)
        assert device.max_damage < 1e-6  # far from wearout
        leveler_imbalance = (
            device.max_damage / device.mean_damage if device.mean_damage else 1.0
        )
        assert leveler_imbalance < 50  # no pathological hot slot

    def test_rber_within_spec_during_service(self, setup):
        device, controller = setup
        blocks = controller.write(64 * MiB, 120.0, now=0.0)
        for step in range(5):
            now = 10.0 * step
            controller.read(blocks, now=now)
            for block in blocks:
                assert device.rber_of(block, now) <= device.error_model.rber_at_spec
