"""Scenario tests for paged KV allocation, asserted through metrics.

The paged allocator itself is deliberately uninstrumented (pure
mechanism); :class:`KVCacheManager` is the policy layer that owns the
registry.  These scenarios drive allocator behaviour — rejection,
batch appends, releases — and assert the metric stream matches
physical page movements exactly.
"""

import pytest

from repro.inference.kvcache import KVCacheManager
from repro.inference.paging import OutOfPages
from repro.obs import MetricsRegistry
from repro.workload.model import LLAMA2_13B


def make_kv(pages=20, reg=None):
    """A manager with exactly ``pages`` physical pages."""
    kv = KVCacheManager(
        LLAMA2_13B,
        capacity_bytes=pages * LLAMA2_13B.kv_bytes_per_token * 16,
        obs=reg,
    )
    assert kv.allocator.total_pages == pages
    return kv


def counters(reg):
    return reg.snapshot()["counters"]


class TestAllocationMetrics:
    def test_register_appends_physical_pages_only(self):
        reg = MetricsRegistry()
        kv = make_kv(reg=reg)
        kv.register(0, 40)  # 40 tokens -> 3 pages (ceil 40/16)
        assert kv.allocator.used_pages == 3
        assert (
            counters(reg)["kv.bytes_appended_total{pool=kv0}"]
            == 3 * kv.page_bytes
        )
        assert reg.gauge("kv.bytes_resident", pool="kv0").value == (
            3 * kv.page_bytes
        )

    def test_decode_appends_allocate_lazily(self):
        reg = MetricsRegistry()
        kv = make_kv(reg=reg)
        kv.register(0, 10)  # one partially-filled page
        appended_after_register = counters(reg)[
            "kv.bytes_appended_total{pool=kv0}"
        ]
        assert kv.append_batch([0], steps=6) == 0  # fills page 1
        assert kv.append_batch([0]) == 1  # token 17 opens page 2
        assert (
            counters(reg)["kv.bytes_appended_total{pool=kv0}"]
            == appended_after_register + kv.page_bytes
        )

    def test_append_batch_matches_per_context_loop(self):
        results = []
        for use_batch in (False, True):
            reg = MetricsRegistry()
            kv = make_kv(reg=reg)
            for cid in range(3):
                kv.register(cid, 8)
            for _step in range(30):
                if use_batch:
                    kv.append_batch([0, 1, 2])
                else:
                    for cid in range(3):
                        kv.append_batch([cid])
            results.append(counters(reg))
        assert results[0] == results[1]


class TestRejectionMetrics:
    def test_out_of_pages_counts_rejection_without_bytes(self):
        reg = MetricsRegistry()
        kv = make_kv(pages=4, reg=reg)
        kv.register(0, 4 * 16)  # fills the pool
        before = counters(reg)
        with pytest.raises(OutOfPages):
            kv.register(1, 16)
        after = counters(reg)
        assert after["kv.out_of_pages_total{pool=kv0}"] == 1.0
        assert (
            after["kv.bytes_appended_total{pool=kv0}"]
            == before["kv.bytes_appended_total{pool=kv0}"]
        )
        assert after["kv.contexts_registered_total{pool=kv0}"] == 1.0


class TestUninstrumentedDefault:
    def test_runs_without_registry(self):
        kv = make_kv()  # NULL_REGISTRY path
        kv.register(0, 40)
        kv.append_batch([0], steps=20)
        kv.release([0])
        assert kv.allocator.used_pages == 0
        assert kv.obs.enabled is False
