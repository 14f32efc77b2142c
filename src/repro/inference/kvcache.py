"""Per-context KV-cache management over the paged allocator.

:class:`KVCacheManager` owns one memory tier's KV pool and the page
tables of every live context on it.  It provides:

- admission sizing (can a prompt of N tokens fit right now?);
- append accounting as contexts decode;
- byte accounting through the observability registry, the
  memory-pressure signals the batch scheduler and tiering policies act
  on.

The manager tracks bytes, not tensors — consistent with the library-wide
"sized, not computed" rule (DESIGN.md non-goals).
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.inference.paging import OutOfPages, PagedAllocator, PageTable
from repro.obs import NULL_REGISTRY
from repro.workload.model import ModelConfig

#: Vectors per KV page: multi-MiB pages for 70B-class models, matching
#: the paper's "each page is typically over 10 vectors".
TOKENS_PER_PAGE = 16


class KVCacheManager:
    """KV-cache pool of one memory tier.

    Parameters
    ----------
    model:
        Sizing (bytes per token vector).
    capacity_bytes:
        Tier bytes reserved for KV cache, cut into pages of
        :data:`TOKENS_PER_PAGE` vectors.
    """

    def __init__(
        self,
        model: ModelConfig,
        capacity_bytes: int,
        obs=None,
        name: str = "kv0",
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.model = model
        self.page_bytes = model.kv_bytes_per_token * TOKENS_PER_PAGE
        total_pages = capacity_bytes // self.page_bytes
        if total_pages < 1:
            raise ValueError(
                f"capacity {capacity_bytes} below one page ({self.page_bytes})"
            )
        self.allocator = PagedAllocator(total_pages, self.page_bytes)
        self._tables: Dict[int, PageTable] = {}
        # Byte accounting through the observability registry.  The
        # invariant the property tests assert: appended − released ==
        # resident.
        self.obs = obs if obs is not None else NULL_REGISTRY
        o = self.obs
        self._obs_appended = o.counter("kv.bytes_appended_total", pool=name)
        self._obs_released = o.counter("kv.bytes_released_total", pool=name)
        self._obs_resident = o.gauge("kv.bytes_resident", pool=name)
        self._obs_registered = o.counter("kv.contexts_registered_total", pool=name)
        self._obs_evicted = o.counter("kv.contexts_released_total", pool=name)
        self._obs_rejections = o.counter("kv.out_of_pages_total", pool=name)

    # ------------------------------------------------------------------
    # Capacity queries
    # ------------------------------------------------------------------
    def used_bytes(self) -> int:
        return self.allocator.used_pages * self.page_bytes

    def pages_for_tokens(self, tokens: int) -> int:
        if tokens < 0:
            raise ValueError("token count must be >= 0")
        return -(-tokens // TOKENS_PER_PAGE)

    def can_admit(self, prompt_tokens: int, headroom_tokens: int = 0) -> bool:
        """Would a new context with this prompt fit right now?"""
        need = self.pages_for_tokens(prompt_tokens + headroom_tokens)
        return need <= self.allocator.free_pages

    # ------------------------------------------------------------------
    # Context lifecycle
    # ------------------------------------------------------------------
    def register(self, context_id: int, prompt_tokens: int) -> int:
        """Create a context and allocate its prompt KV; returns pages
        allocated."""
        if context_id in self._tables:
            raise ValueError(f"context {context_id} already registered")
        if prompt_tokens < 1:
            raise ValueError("prompt must have at least one token")
        table = PageTable(self.allocator, TOKENS_PER_PAGE)
        try:
            allocated = table.append_tokens(prompt_tokens)
        except OutOfPages:
            # All-or-nothing: the failed append took no page.
            self._obs_rejections.add()
            raise
        self._tables[context_id] = table
        self._obs_registered.add()
        self._obs_appended.add(allocated * self.page_bytes)
        self._obs_resident.set(self.used_bytes())
        return allocated

    def append_batch(self, context_ids: Iterable[int], steps: int = 1) -> int:
        """Record ``steps`` decode steps of a whole batch in one call.

        Equivalent to ``steps`` rounds of one token per context over
        the batch in order: pages are allocated in (step, batch position)
        order, so every page lands on the same context as in the
        per-step loop.  A context takes a fresh page at the first step
        its current pages overflow and every :data:`TOKENS_PER_PAGE` steps
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
        per_page = TOKENS_PER_PAGE
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

    def release(self, context_ids: Iterable[int]) -> int:
        """Free finished contexts, in order; returns pages released.

        The allocator sees each context's pages freed in turn, and the
        observability updates (released-bytes counter, resident gauge)
        are paid once per call.  Byte counts are exact integers, so the
        totals do not depend on how releases are grouped into calls.
        """
        released = 0
        count = 0
        for context_id in context_ids:
            table = self._tables.pop(context_id, None)
            if table is None:
                raise KeyError(f"context {context_id} is not registered")
            released += table.free()
            count += 1
        if count:
            self._obs_evicted.add(count)
            self._obs_released.add(released * self.page_bytes)
            self._obs_resident.set(self.used_bytes())
        return released
