"""Tests for the paged allocator and KV-cache manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.inference.kvcache import KVCacheManager
from repro.inference.paging import OutOfPages, PagedAllocator, PageTable
from repro.units import MiB
from repro.workload.model import LLAMA2_70B


class TestPagedAllocator:
    def test_allocate_release_cycle(self):
        alloc = PagedAllocator(total_pages=4, page_bytes=1024)
        pages = alloc.allocate_run(4)
        assert len(set(pages)) == 4
        assert alloc.free_pages == 0
        with pytest.raises(OutOfPages):
            alloc.allocate_run(1)
        alloc.release_run([pages[0]])
        assert alloc.free_pages == 1

    def test_refcounted_sharing(self):
        alloc = PagedAllocator(4, 1024)
        [page] = alloc.allocate_run(1)
        alloc.share_run([page])
        assert alloc.refcount(page) == 2
        alloc.release_run([page])
        assert alloc.refcount(page) == 1
        assert alloc.free_pages == 3  # still held
        alloc.release_run([page])
        assert alloc.free_pages == 4

    def test_release_unallocated_rejected(self):
        alloc = PagedAllocator(4, 1024)
        with pytest.raises(KeyError):
            alloc.release_run([0])

    def test_share_unallocated_rejected(self):
        alloc = PagedAllocator(4, 1024)
        with pytest.raises(KeyError):
            alloc.share_run([1])

    def test_utilization(self):
        alloc = PagedAllocator(4, 1024)
        alloc.allocate_run(1)
        assert alloc.utilization() == 0.25


class TestPageTable:
    def make(self, pages=16):
        alloc = PagedAllocator(pages, page_bytes=16 * 1024)
        return alloc, PageTable(alloc, tokens_per_page=16)

    def test_append_allocates_on_boundary(self):
        _alloc, table = self.make()
        assert table.append_tokens(16) == 1
        assert table.append_tokens(1) == 1  # crosses into a second page
        assert table.append_tokens(15) == 0  # fills page 2 exactly
        assert table.tokens == 32

    def test_all_or_nothing_allocation(self):
        alloc, table = self.make(pages=2)
        with pytest.raises(OutOfPages):
            table.append_tokens(3 * 16)
        assert table.tokens == 0
        assert alloc.free_pages == 2

    def test_free_releases_everything(self):
        alloc, table = self.make()
        table.append_tokens(40)
        released = table.free()
        assert released == 3
        assert alloc.free_pages == 16
        assert table.tokens == 0

    def test_shared_prefix_mapping(self):
        alloc = PagedAllocator(16, 16 * 1024)
        source = PageTable(alloc, tokens_per_page=16)
        source.append_tokens(40)  # 3 pages
        clone = PageTable(alloc, tokens_per_page=16)
        shared = clone.map_shared_prefix(source, prefix_tokens=40)
        assert shared == 2  # only whole pages (40 // 16)
        assert clone.tokens == 32
        assert alloc.refcount(source.pages[0]) == 2

    def test_prefix_into_nonempty_rejected(self):
        alloc = PagedAllocator(16, 16 * 1024)
        source = PageTable(alloc, 16)
        source.append_tokens(16)
        other = PageTable(alloc, 16)
        other.append_tokens(16)
        with pytest.raises(RuntimeError):
            other.map_shared_prefix(source, 16)

    def test_fragmentation_bounded_by_one_page(self):
        """PagedAttention's claim [22]: waste < one page per context."""
        alloc, table = self.make()
        table.append_tokens(17)
        assert table.fragmentation_bytes() < alloc.page_bytes


class TestKVCacheManager:
    def make(self, capacity_mb=512, sharing=False) -> KVCacheManager:
        return KVCacheManager(
            LLAMA2_70B,
            capacity_bytes=capacity_mb * MiB,
            tokens_per_page=16,
            enable_prefix_sharing=sharing,
        )

    def test_page_bytes_multi_mb(self):
        """16 vectors x 320 KiB = 5 MiB pages — 'several MBs' [22]."""
        kv = self.make()
        assert kv.page_bytes == 16 * LLAMA2_70B.kv_bytes_per_token
        assert kv.page_bytes > 4 * MiB

    def test_register_append_release(self):
        kv = self.make()
        kv.register(1, prompt_tokens=100)
        assert kv.context_tokens(1) == 100
        kv.append(1, 1)
        assert kv.context_tokens(1) == 101
        assert kv.context_bytes(1) == 101 * LLAMA2_70B.kv_bytes_per_token
        released = kv.release(1)
        assert released > 0
        assert kv.live_contexts() == []

    def test_double_register_rejected(self):
        kv = self.make()
        kv.register(1, 10)
        with pytest.raises(ValueError):
            kv.register(1, 10)

    def test_unknown_context_rejected(self):
        kv = self.make()
        with pytest.raises(KeyError):
            kv.append(99)
        with pytest.raises(KeyError):
            kv.release(99)

    def test_admission_check(self):
        kv = self.make(capacity_mb=64)  # ~12 pages of 5 MiB
        assert kv.can_admit(100)
        assert not kv.can_admit(100_000)

    def test_failed_register_leaks_nothing(self):
        kv = self.make(capacity_mb=64)
        free_before = kv.free_bytes()
        with pytest.raises(Exception):
            kv.register(1, 100_000)
        assert kv.free_bytes() == free_before

    def test_prefix_sharing_saves_pages(self):
        kv = self.make(sharing=True)
        kv.register(1, prompt_tokens=160, prefix_key="system-prompt-v1")
        used_before = kv.used_bytes()
        allocated, shared = kv.register(
            2, prompt_tokens=160, prefix_key="system-prompt-v1"
        )
        assert shared == 160
        assert allocated == 0
        assert kv.used_bytes() == used_before  # no new pages
        assert kv.prefix_hits == 1

    def test_prefix_sharing_disabled_by_default(self):
        kv = self.make(sharing=False)
        kv.register(1, 160, prefix_key="k")
        allocated, shared = kv.register(2, 160, prefix_key="k")
        assert shared == 0
        assert allocated > 0

    def test_release_source_keeps_shared_pages_alive(self):
        kv = self.make(sharing=True)
        kv.register(1, 160, prefix_key="k")
        kv.register(2, 160, prefix_key="k")
        kv.release(1)  # source gone; clone still holds references
        assert kv.context_tokens(2) == 160
        kv.release(2)
        assert kv.used_bytes() == 0

    def test_fragmentation_reporting(self):
        kv = self.make()
        kv.register(1, prompt_tokens=17)
        assert 0 < kv.total_fragmentation_bytes() < kv.page_bytes


class _ScanCountingDict(dict):
    """Counts whole-table iterations; point lookups stay free."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scans = 0

    def items(self):
        self.scans += 1
        return super().items()

    def keys(self):
        self.scans += 1
        return super().keys()

    def values(self):
        self.scans += 1
        return super().values()

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


class TestEvictionCost:
    """Releasing a context must not walk the whole prefix index.

    Regression guard for the old O(n) stale-key scan: every release
    scanned every prefix key ever registered, so eviction cost grew
    with table size.  The reverse index makes it O(keys owned by the
    evicted context)."""

    def make(self, capacity_mb=2048) -> KVCacheManager:
        return KVCacheManager(
            LLAMA2_70B,
            capacity_bytes=capacity_mb * MiB,
            tokens_per_page=16,
            enable_prefix_sharing=True,
        )

    def test_release_never_scans_prefix_index(self):
        kv = self.make()
        counting = _ScanCountingDict(kv._prefix_index)
        kv._prefix_index = counting
        for context_id in range(64):
            kv.register(context_id, 16, prefix_key=f"prefix-{context_id}")
        assert len(counting) == 64
        for context_id in range(64):
            kv.release(context_id)
        assert counting.scans == 0
        assert len(counting) == 0  # stale keys still removed

    def test_eviction_work_independent_of_table_size(self):
        """The victim's bookkeeping is identical whether 4 or 256 other
        prefix keys are live: only its own (single) key is touched."""
        per_size_ops = []
        for others in (4, 256):
            kv = self.make()
            for context_id in range(others):
                kv.register(context_id, 16, prefix_key=f"other-{context_id}")
            kv.register(10_000, 16, prefix_key="victim-key")
            counting = _ScanCountingDict(kv._prefix_index)
            kv._prefix_index = counting
            before = len(counting)
            kv.release(10_000)
            per_size_ops.append((counting.scans, before - len(counting)))
        # No full scans, and exactly one key removed — at both sizes.
        assert per_size_ops[0] == per_size_ops[1] == (0, 1)

    def test_stale_key_removed_and_reanchored(self):
        kv = self.make()
        kv.register(1, 160, prefix_key="shared")
        kv.release(1)
        assert "shared" not in kv._prefix_index
        # A later context re-anchors the key (miss, not a stale hit).
        hits_before = kv.prefix_hits
        kv.register(2, 160, prefix_key="shared")
        assert kv.prefix_hits == hits_before
        assert kv._prefix_index["shared"] == 2

    def test_takeover_release_keeps_new_anchor(self):
        """Releasing an old anchor must not drop a key another context
        has since re-anchored."""
        kv = self.make()
        kv.register(1, 160, prefix_key="k")
        kv.release(1)  # key removed with its anchor
        kv.register(2, 160, prefix_key="k")  # re-anchored by 2
        kv.register(3, 160)  # unrelated context
        kv.release(3)
        assert kv._prefix_index["k"] == 2


class TestAppendBatch:
    def make(self, capacity_mb=512) -> KVCacheManager:
        return KVCacheManager(
            LLAMA2_70B, capacity_bytes=capacity_mb * MiB, tokens_per_page=16
        )

    def test_matches_per_context_append(self):
        batched, looped = self.make(), self.make()
        for kv in (batched, looped):
            for context_id in (1, 2, 3):
                kv.register(context_id, prompt_tokens=15 + context_id)
        for _ in range(40):
            allocated_batch = batched.append_batch([1, 2, 3])
            allocated_loop = sum(looped.append(cid, 1) for cid in (1, 2, 3))
            assert allocated_batch == allocated_loop
        for context_id in (1, 2, 3):
            assert (
                batched.context_tokens(context_id)
                == looped.context_tokens(context_id)
            )
        assert batched.used_bytes() == looped.used_bytes()

    def test_steps_match_repeated_single_steps(self):
        # Pages land in (step, batch position) order: the same page ids
        # on the same contexts, and the same free list, as the loop.
        leaped, stepped = self.make(), self.make()
        for kv in (leaped, stepped):
            for context_id, prompt in ((1, 16), (2, 3), (3, 40)):
                kv.register(context_id, prompt_tokens=prompt)
        assert leaped.append_batch([3, 1, 2], steps=37) == sum(
            stepped.append_batch([3, 1, 2]) for _ in range(37)
        )
        for context_id in (1, 2, 3):
            assert (
                leaped._tables[context_id].pages
                == stepped._tables[context_id].pages
            )
            assert (
                leaped.context_tokens(context_id)
                == stepped.context_tokens(context_id)
            )
        assert leaped.allocator._free == stepped.allocator._free

    def test_steps_out_of_pages_allocates_nothing(self):
        page_bytes = 16 * LLAMA2_70B.kv_bytes_per_token
        kv = KVCacheManager(LLAMA2_70B, capacity_bytes=4 * page_bytes)
        kv.register(1, prompt_tokens=16)
        free = list(kv.allocator._free)
        with pytest.raises(OutOfPages):
            kv.append_batch([1], steps=64)
        assert kv.allocator._free == free
        assert kv.context_tokens(1) == 16

    def test_allocates_on_page_boundary(self):
        kv = self.make()
        kv.register(1, prompt_tokens=16)  # exactly one full page
        assert kv.append_batch([1]) == 1  # token 17 needs a new page
        assert kv.append_batch([1]) == 0  # token 18 rides the fast path

    def test_unknown_context_rejected(self):
        kv = self.make()
        with pytest.raises(KeyError):
            kv.append_batch([99])

    def test_negative_tokens_rejected(self):
        kv = self.make()
        kv.register(1, 16)
        with pytest.raises(ValueError):
            kv.append_batch([1], steps=-1)


class PerPageAllocator(PagedAllocator):
    """The one-page-per-call allocator that page runs replace, kept as
    the oracle: a dict of reference counts, and every run taken,
    shared or released one page at a time."""

    def __init__(self, total_pages: int, page_bytes: int) -> None:
        super().__init__(total_pages, page_bytes)
        self.counts = {}

    def allocate(self) -> int:
        if not self._free:
            raise OutOfPages("no free pages")
        page = self._free.pop()
        self.counts[page] = 1
        return page

    def share(self, page: int) -> None:
        if page not in self.counts:
            raise KeyError(page)
        self.counts[page] += 1

    def release(self, page: int) -> None:
        count = self.counts.get(page)
        if count is None:
            raise KeyError(page)
        if count == 1:
            del self.counts[page]
            self._free.append(page)
        else:
            self.counts[page] = count - 1

    def allocate_run(self, count):
        if count > self.free_pages:
            raise OutOfPages("not enough free pages")
        return [self.allocate() for _ in range(count)]

    def share_run(self, pages):
        for page in pages:
            self.share(page)

    def release_run(self, pages):
        for page in pages:
            self.release(page)

    def refcount(self, page: int) -> int:
        return self.counts.get(page, 0)


def _pool(alloc: PagedAllocator):
    """The free list and every page's reference count."""
    return (
        list(alloc._free),
        [alloc.refcount(page) for page in range(alloc.total_pages)],
    )


class TestPageRuns:
    """A run call equals the same pages taken, shared or released one
    at a time: the same ids, free-list order and reference counts."""

    def pair(self, pages=12):
        return PagedAllocator(pages, 1024), PerPageAllocator(pages, 1024)

    def test_take_matches_single_takes(self):
        run, single = self.pair()
        for count in (3, 0, 5, 1):
            assert run.allocate_run(count) == single.allocate_run(count)
            assert _pool(run) == _pool(single)

    def test_release_with_shared_pages_matches_single_releases(self):
        run, single = self.pair()
        for alloc in (run, single):
            pages = alloc.allocate_run(8)
            alloc.share_run(pages[1:6:2])
            alloc.release_run(pages[::-1])
            alloc.allocate_run(2)
            alloc.release_run(pages[1:6:2])
        assert _pool(run) == _pool(single)

    def test_out_of_pages_takes_nothing(self):
        run, _single = self.pair(pages=4)
        run.allocate_run(3)
        before = _pool(run)
        with pytest.raises(OutOfPages):
            run.allocate_run(2)
        assert _pool(run) == before

    def test_double_release_raises_after_the_pages_before_it(self):
        run, single = self.pair(pages=4)
        outcomes = []
        for alloc in (run, single):
            pages = alloc.allocate_run(4)
            alloc.release_run(pages[:1])
            with pytest.raises(KeyError):
                alloc.release_run([pages[2], pages[3], pages[0], pages[1]])
            outcomes.append(_pool(alloc))
        assert outcomes[0] == outcomes[1]
        # Pages 2 and 3 went back before the double release raised.
        assert run.free_pages == 3

    def test_share_of_a_free_page_raises(self):
        run, _single = self.pair()
        pages = run.allocate_run(2)
        run.release_run(pages[:1])
        with pytest.raises(KeyError):
            run.share_run(pages)


@st.composite
def _kv_ops(draw):
    ops = []
    live = []
    next_id = 0
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["register", "append", "release"]))
        if kind == "register" or not live:
            prefix = draw(st.sampled_from([None, "a", "b"]))
            ops.append(("register", next_id, draw(st.integers(1, 160)), prefix))
            live.append(next_id)
            next_id += 1
        elif kind == "append":
            ids = draw(st.lists(st.sampled_from(live), min_size=1, unique=True))
            ops.append(("append", ids, draw(st.integers(0, 64))))
        else:
            victims = draw(st.lists(st.sampled_from(live), min_size=1, unique=True))
            for victim in victims:
                live.remove(victim)
            ops.append(("release", victims))
    return ops


class TestKVCacheAgainstPerPageReference:
    """register / append_batch / release_batch with prefix sharing on,
    against a manager whose allocator works a page at a time and whose
    decode steps append one token per context per step."""

    @staticmethod
    def make(allocator_cls):
        kv = KVCacheManager(
            LLAMA2_70B,
            capacity_bytes=24 * 16 * LLAMA2_70B.kv_bytes_per_token,
            tokens_per_page=16,
            enable_prefix_sharing=True,
        )
        kv.allocator = allocator_cls(kv.allocator.total_pages, kv.page_bytes)
        return kv

    @settings(max_examples=60, deadline=None)
    @given(_kv_ops())
    def test_same_pages_as_the_per_page_reference(self, ops):
        kv, ref = self.make(PagedAllocator), self.make(PerPageAllocator)
        for op in ops:
            if op[0] == "register":
                _, context_id, prompt, prefix = op
                outcomes = []
                for manager in (kv, ref):
                    try:
                        outcomes.append(manager.register(context_id, prompt, prefix))
                    except OutOfPages:
                        outcomes.append("out of pages")
                assert outcomes[0] == outcomes[1]
            elif op[0] == "append":
                _, ids, steps = op
                ids = [c for c in ids if c in ref._tables]
                need = sum(ref._tables[c].pages_needed_for(steps) for c in ids)
                if need > ref.allocator.free_pages:
                    before = _pool(kv.allocator)
                    with pytest.raises(OutOfPages):
                        kv.append_batch(ids, steps)
                    assert _pool(kv.allocator) == before
                    continue
                allocated = kv.append_batch(ids, steps)
                assert allocated == sum(
                    ref.append(c, 1) for _ in range(steps) for c in ids
                )
            else:
                victims = [c for c in op[1] if c in ref._tables]
                assert kv.release_batch(victims) == ref.release_batch(victims)
            assert _pool(kv.allocator) == _pool(ref.allocator)
            assert {c: (t.pages, t.tokens) for c, t in kv._tables.items()} == {
                c: (t.pages, t.tokens) for c, t in ref._tables.items()
            }
