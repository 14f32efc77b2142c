"""Per-context KV-cache management over the paged allocator.

:class:`KVCacheManager` owns one memory tier's KV pool and the page
tables of every live context on it.  It provides:

- admission sizing (can a prompt of N tokens fit right now?);
- append accounting as contexts decode;
- prefix sharing [54]: identical prompt prefixes map the same physical
  pages (reference-counted in the allocator);
- occupancy/fragmentation statistics, the memory-pressure signals the
  batch scheduler and tiering policies act on.

The manager tracks bytes, not tensors — consistent with the library-wide
"sized, not computed" rule (DESIGN.md non-goals).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.inference.paging import OutOfPages, PagedAllocator, PageTable
from repro.obs import NULL_REGISTRY
from repro.workload.model import ModelConfig


class KVCacheManager:
    """KV-cache pool of one memory tier.

    Parameters
    ----------
    model:
        Sizing (bytes per token vector).
    capacity_bytes:
        Tier bytes reserved for KV cache.
    tokens_per_page:
        Vectors per page.  Default 16 gives multi-MiB pages for 70B-class
        models, matching the paper's "each page is typically over 10
        vectors".
    enable_prefix_sharing:
        If True, contexts registered with a matching prompt prefix key
        share physical pages.
    """

    def __init__(
        self,
        model: ModelConfig,
        capacity_bytes: int,
        tokens_per_page: int = 16,
        enable_prefix_sharing: bool = False,
        obs=None,
        name: str = "kv0",
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if tokens_per_page < 1:
            raise ValueError("tokens_per_page must be >= 1")
        self.model = model
        self.tokens_per_page = tokens_per_page
        self.page_bytes = model.kv_bytes_per_token * tokens_per_page
        total_pages = capacity_bytes // self.page_bytes
        if total_pages < 1:
            raise ValueError(
                f"capacity {capacity_bytes} below one page ({self.page_bytes})"
            )
        self.allocator = PagedAllocator(total_pages, self.page_bytes)
        self.enable_prefix_sharing = enable_prefix_sharing
        self._tables: Dict[int, PageTable] = {}
        #: prefix key -> context id whose pages serve as the share source
        self._prefix_index: Dict[str, int] = {}
        #: reverse index: context id -> prefix keys it anchors.  Kept in
        #: lockstep with ``_prefix_index`` so eviction is O(keys owned),
        #: not O(all prefix keys ever registered).
        self._prefix_keys_by_context: Dict[int, List[str]] = {}
        self.prefix_hits = 0
        self.prefix_misses = 0
        # Byte accounting through the observability registry.  The
        # invariant the property tests assert: appended − released ==
        # resident (shared pages are counted once, under *_shared).
        self.obs = obs if obs is not None else NULL_REGISTRY
        o = self.obs
        self._obs_appended = o.counter("kv.bytes_appended_total", pool=name)
        self._obs_released = o.counter("kv.bytes_released_total", pool=name)
        self._obs_shared = o.counter("kv.bytes_shared_total", pool=name)
        self._obs_resident = o.gauge("kv.bytes_resident", pool=name)
        self._obs_registered = o.counter("kv.contexts_registered_total", pool=name)
        self._obs_evicted = o.counter("kv.contexts_released_total", pool=name)
        self._obs_rejections = o.counter("kv.out_of_pages_total", pool=name)

    # ------------------------------------------------------------------
    # Capacity queries
    # ------------------------------------------------------------------
    def free_bytes(self) -> int:
        return self.allocator.free_pages * self.page_bytes

    def used_bytes(self) -> int:
        return self.allocator.used_pages * self.page_bytes

    def pages_for_tokens(self, tokens: int) -> int:
        if tokens < 0:
            raise ValueError("token count must be >= 0")
        return -(-tokens // self.tokens_per_page)

    def can_admit(self, prompt_tokens: int, headroom_tokens: int = 0) -> bool:
        """Would a new context with this prompt fit right now?"""
        need = self.pages_for_tokens(prompt_tokens + headroom_tokens)
        return need <= self.allocator.free_pages

    # ------------------------------------------------------------------
    # Context lifecycle
    # ------------------------------------------------------------------
    def register(
        self,
        context_id: int,
        prompt_tokens: int,
        prefix_key: Optional[str] = None,
    ) -> Tuple[int, int]:
        """Create a context and allocate its prompt KV.

        Returns ``(pages_allocated, tokens_served_from_shared_prefix)``.
        With prefix sharing on and a known ``prefix_key``, the shared
        whole pages are mapped instead of allocated.
        """
        if context_id in self._tables:
            raise ValueError(f"context {context_id} already registered")
        if prompt_tokens < 1:
            raise ValueError("prompt must have at least one token")
        table = PageTable(self.allocator, self.tokens_per_page)
        shared_tokens = 0
        if self.enable_prefix_sharing and prefix_key is not None:
            source_id = self._prefix_index.get(prefix_key)
            source = self._tables.get(source_id) if source_id is not None else None
            if source is not None and source.tokens > 0:
                sharable = min(prompt_tokens, source.tokens)
                shared_pages = table.map_shared_prefix(source, sharable)
                shared_tokens = shared_pages * self.tokens_per_page
                self.prefix_hits += 1
            else:
                self._prefix_index[prefix_key] = context_id
                self._prefix_keys_by_context.setdefault(
                    context_id, []
                ).append(prefix_key)
                self.prefix_misses += 1
        remaining = prompt_tokens - shared_tokens
        try:
            allocated = table.append_tokens(remaining) if remaining > 0 else 0
        except OutOfPages:
            # Rollback is physically neutral (shared pages only drop a
            # refcount), so recording nothing keeps byte accounting exact.
            table.free()
            self._obs_rejections.add()
            raise
        self._tables[context_id] = table
        self._obs_registered.add()
        self._obs_appended.add(allocated * self.page_bytes)
        self._obs_shared.add(
            (shared_tokens // self.tokens_per_page) * self.page_bytes
        )
        self._obs_resident.set(self.used_bytes())
        return allocated, shared_tokens

    def append(self, context_id: int, tokens: int = 1) -> int:
        """Record decode appends; returns pages newly allocated."""
        allocated = self._table(context_id).append_tokens(tokens)
        if allocated:
            self._obs_appended.add(allocated * self.page_bytes)
            self._obs_resident.set(self.used_bytes())
        return allocated

    def append_batch(self, context_ids: Iterable[int], steps: int = 1) -> int:
        """Record ``steps`` decode steps of a whole batch in one call.

        Equivalent to ``steps`` rounds of ``append(cid, 1)`` over the
        batch in order: pages are allocated in (step, batch position)
        order, so every page lands on the same context as in the
        per-step loop.  A context takes a fresh page at the first step
        its current pages overflow and every ``tokens_per_page`` steps
        after; the steps in between only move its token count.  When
        the pool cannot cover every page the run needs it raises
        :class:`OutOfPages` before allocating any.  Returns total pages
        newly allocated.
        """
        if steps < 0:
            raise ValueError("step count must be >= 0")
        tables = []
        for context_id in context_ids:
            table = self._tables.get(context_id)
            if table is None:
                raise KeyError(f"context {context_id} is not registered")
            tables.append(table)
        per_page = self.tokens_per_page
        needs = []
        for position, table in enumerate(tables):
            first = len(table.pages) * per_page - table.tokens + 1
            needs.extend(
                (step, position) for step in range(first, steps + 1, per_page)
            )
        if needs:
            needs.sort()
            pages = self.allocator.allocate_run(len(needs))
            for (_step, position), page in zip(needs, pages):
                tables[position].pages.append(page)
        for table in tables:
            table.tokens += steps
        allocated = len(needs)
        if allocated:
            self._obs_appended.add(allocated * self.page_bytes)
            self._obs_resident.set(self.used_bytes())
        return allocated

    def release(self, context_id: int) -> int:
        """Free a finished context; returns pages released.

        Cost is O(pages + prefix keys *this* context anchors): the
        reverse index replaces what used to be a linear scan of every
        prefix key in the table (regression-tested in
        ``tests/inference/test_paging_kvcache.py``).
        """
        table = self._tables.pop(context_id, None)
        if table is None:
            raise KeyError(f"context {context_id} is not registered")
        for key in self._prefix_keys_by_context.pop(context_id, ()):
            if self._prefix_index.get(key) == context_id:
                del self._prefix_index[key]
        # Physical frees only: a shared page someone else still maps is
        # unmapped here but stays resident, so the accounting measures
        # the allocator's used-page delta, not the unmap count.
        used_before = self.allocator.used_pages
        released = table.free()
        freed = used_before - self.allocator.used_pages
        self._obs_evicted.add()
        self._obs_released.add(freed * self.page_bytes)
        self._obs_resident.set(self.used_bytes())
        return released

    def release_batch(self, context_ids: Iterable[int]) -> int:
        """Free several finished contexts in one call; returns pages released.

        Equivalent to ``release(cid)`` per context, in order — the
        allocator sees the identical free sequence — but the
        observability updates (released-bytes counter, resident gauge)
        are paid once per batch instead of once per context.  Byte
        counts are exact integers, so the batched totals are
        bit-identical to the per-context path.
        """
        total_released = 0
        total_freed = 0
        count = 0
        for context_id in context_ids:
            table = self._tables.pop(context_id, None)
            if table is None:
                raise KeyError(f"context {context_id} is not registered")
            for key in self._prefix_keys_by_context.pop(context_id, ()):
                if self._prefix_index.get(key) == context_id:
                    del self._prefix_index[key]
            used_before = self.allocator.used_pages
            total_released += table.free()
            total_freed += used_before - self.allocator.used_pages
            count += 1
        if count:
            self._obs_evicted.add(count)
            self._obs_released.add(total_freed * self.page_bytes)
            self._obs_resident.set(self.used_bytes())
        return total_released

    def _table(self, context_id: int) -> PageTable:
        table = self._tables.get(context_id)
        if table is None:
            raise KeyError(f"context {context_id} is not registered")
        return table

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def context_tokens(self, context_id: int) -> int:
        return self._table(context_id).tokens

    def context_bytes(self, context_id: int) -> int:
        return self._table(context_id).tokens * self.model.kv_bytes_per_token

    def live_contexts(self) -> List[int]:
        return sorted(self._tables)

    def total_fragmentation_bytes(self) -> int:
        """Internal fragmentation across all live contexts — the waste
        PagedAttention bounds to under one page per context [22]."""
        return sum(t.fragmentation_bytes() for t in self._tables.values())
