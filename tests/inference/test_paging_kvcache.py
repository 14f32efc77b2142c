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

    def test_release_unallocated_rejected(self):
        alloc = PagedAllocator(4, 1024)
        with pytest.raises(KeyError):
            alloc.release_run([0])


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


class TestKVCacheManager:
    def make(self, capacity_mb=512) -> KVCacheManager:
        return KVCacheManager(LLAMA2_70B, capacity_bytes=capacity_mb * MiB)

    def test_page_bytes_multi_mb(self):
        """16 vectors x 320 KiB = 5 MiB pages — 'several MBs' [22]."""
        kv = self.make()
        assert kv.page_bytes == 16 * LLAMA2_70B.kv_bytes_per_token
        assert kv.page_bytes > 4 * MiB

    def test_register_append_release(self):
        kv = self.make()
        assert kv.register(1, prompt_tokens=100) == 7
        kv.append_batch([1])
        assert kv._tables[1].tokens == 101
        assert kv.used_bytes() == 7 * kv.page_bytes
        assert kv.release([1]) == 7
        assert kv._tables == {}
        assert kv.used_bytes() == 0

    def test_double_register_rejected(self):
        kv = self.make()
        kv.register(1, 10)
        with pytest.raises(ValueError):
            kv.register(1, 10)

    def test_unknown_context_rejected(self):
        kv = self.make()
        with pytest.raises(KeyError):
            kv.append_batch([99])
        with pytest.raises(KeyError):
            kv.release([99])

    def test_admission_check(self):
        kv = self.make(capacity_mb=64)  # ~12 pages of 5 MiB
        assert kv.can_admit(100)
        assert not kv.can_admit(100_000)

    def test_failed_register_leaks_nothing(self):
        kv = self.make(capacity_mb=64)
        with pytest.raises(OutOfPages):
            kv.register(1, 100_000)
        assert kv.used_bytes() == 0
        assert 1 not in kv._tables


class TestAppendBatch:
    def make(self, capacity_mb=512) -> KVCacheManager:
        return KVCacheManager(LLAMA2_70B, capacity_bytes=capacity_mb * MiB)

    def test_matches_per_context_append(self):
        batched, looped = self.make(), self.make()
        for kv in (batched, looped):
            for context_id in (1, 2, 3):
                kv.register(context_id, prompt_tokens=15 + context_id)
        for _ in range(40):
            allocated_batch = batched.append_batch([1, 2, 3])
            allocated_loop = sum(looped.append_batch([cid]) for cid in (1, 2, 3))
            assert allocated_batch == allocated_loop
        for context_id in (1, 2, 3):
            assert (
                batched._tables[context_id].tokens
                == looped._tables[context_id].tokens
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
                leaped._tables[context_id].tokens
                == stepped._tables[context_id].tokens
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
        assert kv._tables[1].tokens == 16

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
    the oracle: a set of held pages, and every run taken or released
    one page at a time."""

    def __init__(self, total_pages: int, page_bytes: int) -> None:
        super().__init__(total_pages, page_bytes)
        self.held = set()

    def allocate(self) -> int:
        if not self._free:
            raise OutOfPages("no free pages")
        page = self._free.pop()
        self.held.add(page)
        return page

    def release(self, page: int) -> None:
        if page not in self.held:
            raise KeyError(page)
        self.held.remove(page)
        self._free.append(page)

    def allocate_run(self, count):
        if count > self.free_pages:
            raise OutOfPages("not enough free pages")
        return [self.allocate() for _ in range(count)]

    def release_run(self, pages):
        for page in pages:
            self.release(page)


def _pool(alloc: PagedAllocator):
    """The free list and the ids of the pages held."""
    if isinstance(alloc, PerPageAllocator):
        held = sorted(alloc.held)
    else:
        held = [page for page, flag in enumerate(alloc._allocated) if flag]
    return list(alloc._free), held


class TestPageRuns:
    """A run call equals the same pages taken or released one at a
    time: the same ids, free-list order and held pages."""

    def pair(self, pages=12):
        return PagedAllocator(pages, 1024), PerPageAllocator(pages, 1024)

    def test_take_matches_single_takes(self):
        run, single = self.pair()
        for count in (3, 0, 5, 1):
            assert run.allocate_run(count) == single.allocate_run(count)
            assert _pool(run) == _pool(single)

    def test_release_matches_single_releases(self):
        run, single = self.pair()
        for alloc in (run, single):
            pages = alloc.allocate_run(8)
            alloc.release_run(pages[1:6:2])
            alloc.allocate_run(2)
            alloc.release_run(pages[-2::-2])
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


@st.composite
def _kv_ops(draw):
    ops = []
    live = []
    next_id = 0
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["register", "append", "release"]))
        if kind == "register" or not live:
            ops.append(("register", next_id, draw(st.integers(1, 160))))
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
    """register / append_batch / release against a manager whose
    allocator works a page at a time and whose decode steps append one
    token per context per step."""

    @staticmethod
    def make(allocator_cls):
        kv = KVCacheManager(
            LLAMA2_70B,
            capacity_bytes=24 * 16 * LLAMA2_70B.kv_bytes_per_token,
        )
        kv.allocator = allocator_cls(kv.allocator.total_pages, kv.page_bytes)
        return kv

    @settings(max_examples=60, deadline=None)
    @given(_kv_ops())
    def test_same_pages_as_the_per_page_reference(self, ops):
        kv, ref = self.make(PagedAllocator), self.make(PerPageAllocator)
        for op in ops:
            if op[0] == "register":
                _, context_id, prompt = op
                outcomes = []
                for manager in (kv, ref):
                    try:
                        outcomes.append(manager.register(context_id, prompt))
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
                    ref.append_batch([c]) for _ in range(steps) for c in ids
                )
            else:
                victims = [c for c in op[1] if c in ref._tables]
                assert kv.release(victims) == sum(
                    ref.release([c]) for c in victims
                )
            assert _pool(kv.allocator) == _pool(ref.allocator)
            assert {c: (t.pages, t.tokens) for c, t in kv._tables.items()} == {
                c: (t.pages, t.tokens) for c, t in ref._tables.items()
            }
