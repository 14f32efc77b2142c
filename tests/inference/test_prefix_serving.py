"""Tests for end-to-end prefix sharing: generator -> trace -> engine."""

import pytest

from repro.inference.accelerator import H100_80G
from repro.inference.cluster import Cluster, tensor_parallel_group
from repro.sim import Simulator
from repro.workload.model import LLAMA2_70B
from repro.workload.requests import (
    InferenceRequest,
    PoissonArrivals,
    RequestGenerator,
)
from repro.workload.distributions import SPLITWISE_CONVERSATION
from repro.workload.traces import generate_trace, read_trace, replay_trace, write_trace


class TestGeneratorPrefixKeys:
    def make(self, **kwargs):
        return RequestGenerator(
            profile=SPLITWISE_CONVERSATION,
            arrivals=PoissonArrivals(2.0),
            model=LLAMA2_70B,
            seed=4,
            **kwargs,
        )

    def test_no_keys_by_default(self):
        assert all(
            r.prefix_key is None for r in self.make().generate(count=50)
        )

    def test_keys_assigned_at_probability(self):
        generator = self.make(
            prefix_keys=["system-a", "system-b"], prefix_probability=1.0
        )
        keys = {r.prefix_key for r in generator.generate(count=50)}
        assert keys == {"system-a", "system-b"}

    def test_probability_respected(self):
        generator = self.make(
            prefix_keys=["system-a"], prefix_probability=0.5
        )
        requests = list(generator.generate(count=400))
        keyed = sum(1 for r in requests if r.prefix_key is not None)
        assert 120 < keyed < 280

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(prefix_probability=0.5)  # no keys
        with pytest.raises(ValueError):
            self.make(prefix_keys=["x"], prefix_probability=1.5)


class TestTracePrefixRoundtrip:
    def test_prefix_key_survives_file_roundtrip(self, tmp_path):
        records = generate_trace(
            LLAMA2_70B, count=30, duration_s=None,
            prefix_keys=["sys"], prefix_probability=1.0, seed=1,
        )
        path = tmp_path / "trace.jsonl"
        write_trace(records, path)
        back = read_trace(path)
        assert back == records
        assert all(r.prefix_key == "sys" for r in back)


class TestEnginePrefixSharing:
    def run_cluster(self, sharing: bool):
        sim = Simulator()
        acc = tensor_parallel_group(H100_80G, 4)
        cluster = Cluster(
            sim, acc, LLAMA2_70B, num_engines=1, max_batch_size=8,
            enable_prefix_sharing=sharing,
        )
        trace = generate_trace(
            LLAMA2_70B, duration_s=10.0, seed=9,
            prefix_keys=["system-prompt"], prefix_probability=1.0,
        )
        report = cluster.run(replay_trace(trace))
        engine = cluster.engines[0]
        return report, engine

    def test_sharing_records_shared_tokens(self):
        _report, engine = self.run_cluster(sharing=True)
        assert engine.prefix_tokens_shared > 0
        assert engine.kv.prefix_hits > 0

    def test_no_sharing_no_shared_tokens(self):
        _report, engine = self.run_cluster(sharing=False)
        assert engine.prefix_tokens_shared == 0

    def test_sharing_preserves_results(self):
        with_sharing, _e1 = self.run_cluster(sharing=True)
        without, _e2 = self.run_cluster(sharing=False)
        assert with_sharing.requests_completed == without.requests_completed
        assert with_sharing.tokens_generated == without.tokens_generated
