"""PagedAttention-style KV page allocation [22].

The paper leans on two properties of paged KV management: pages are
large ("typically over 10 vectors ... several MBs to 10s of MBs") and
read strictly in order with a *static* virtual-to-physical mapping —
which is why MRM can drop random access.

:class:`PagedAllocator` manages the physical page pool of one memory
tier; :class:`PageTable` is one context's ordered page list.  The
allocator supports reference-counted sharing so prefix caching [54] can
map the same physical pages into several contexts (copy-on-write never
happens for KV: pages are append-only, so sharing is read-only by
construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence


class OutOfPages(RuntimeError):
    """The physical pool is exhausted (admission control should have
    prevented this — or the caller must evict/offload)."""


class PagedAllocator:
    """Physical page pool with reference counting.

    Parameters
    ----------
    total_pages:
        Pool size (tier capacity / page size).
    page_bytes:
        Page size in bytes.
    """

    def __init__(self, total_pages: int, page_bytes: int) -> None:
        if total_pages < 1 or page_bytes < 1:
            raise ValueError("pool geometry must be >= 1")
        self.total_pages = total_pages
        self.page_bytes = page_bytes
        self._free: List[int] = list(range(total_pages - 1, -1, -1))
        #: References per page id; 0 is a free page.
        self._refcount: List[int] = [0] * total_pages

    @property
    def free_pages(self) -> int:
        return len(self._free)

    @property
    def used_pages(self) -> int:
        return self.total_pages - len(self._free)

    def utilization(self) -> float:
        return self.used_pages / self.total_pages

    def allocate_run(self, count: int) -> List[int]:
        """Take ``count`` physical pages (refcount 1 each), or none.

        The pages are the ones ``count`` takes of one page each would
        return, in the same order: the end of the free list, backwards.
        Raises :class:`OutOfPages`, taking nothing, when fewer are free.
        """
        free = self._free
        if count < 0:
            raise ValueError("page count must be >= 0")
        if count > len(free):
            raise OutOfPages(
                f"need {count} pages, only {len(free)} free "
                f"({self.total_pages} total)"
            )
        pages = free[: -count - 1 : -1]
        del free[len(free) - count :]
        refcount = self._refcount
        for page in pages:
            refcount[page] = 1
        return pages

    def share_run(self, pages: Sequence[int]) -> None:
        """Add a reference to each of ``pages`` (prefix sharing)."""
        refcount = self._refcount
        for page in pages:
            if not refcount[page]:
                raise KeyError(f"page {page} is not allocated")
            refcount[page] += 1

    def release_run(self, pages: Sequence[int]) -> None:
        """Drop one reference to each of ``pages``, in order; a page is
        freed at zero and joins the free list in run order.

        A page that is not allocated raises ``KeyError`` after the pages
        before it are released, as one-page releases would.
        """
        refcount = self._refcount
        freed = []
        for page in pages:
            count = refcount[page]
            if count == 1:
                refcount[page] = 0
                freed.append(page)
            elif count:
                refcount[page] = count - 1
            else:
                self._free.extend(freed)
                raise KeyError(f"page {page} is not allocated")
        self._free.extend(freed)

    def refcount(self, page: int) -> int:
        return self._refcount[page]


@dataclass
class PageTable:
    """One context's ordered KV pages.

    ``tokens_per_page`` fixes how many token vectors fit one page; the
    mapping from token index to (page, slot) is static — once a vector
    is written its physical location never changes, the property that
    lets MRM use a static, predictable layout.
    """

    allocator: PagedAllocator
    tokens_per_page: int
    pages: List[int] = field(default_factory=list)
    tokens: int = 0
    shared_prefix_pages: int = 0  # leading pages mapped from another context

    def __post_init__(self) -> None:
        if self.tokens_per_page < 1:
            raise ValueError("tokens_per_page must be >= 1")

    @property
    def capacity_tokens(self) -> int:
        return len(self.pages) * self.tokens_per_page

    def pages_needed_for(self, new_tokens: int) -> int:
        """Pages that must be allocated to append ``new_tokens``."""
        if new_tokens < 0:
            raise ValueError("token count must be >= 0")
        total = self.tokens + new_tokens
        needed_pages = -(-total // self.tokens_per_page)  # ceil
        return max(0, needed_pages - len(self.pages))

    def append_tokens(self, new_tokens: int) -> int:
        """Append vectors for ``new_tokens`` tokens, allocating pages as
        needed.  Returns pages allocated.  Raises :class:`OutOfPages`
        without partial allocation (all-or-nothing)."""
        need = self.pages_needed_for(new_tokens)
        self.pages.extend(self.allocator.allocate_run(need))
        self.tokens += new_tokens
        return need

    def map_shared_prefix(self, source: "PageTable", prefix_tokens: int) -> int:
        """Map the source's leading pages covering ``prefix_tokens``
        into this (empty) table.  Returns pages shared.

        Only whole pages are shared; the remainder of the prefix is the
        caller's to recompute/append.
        """
        if self.pages or self.tokens:
            raise RuntimeError("can only map a prefix into an empty table")
        if prefix_tokens < 0 or prefix_tokens > source.tokens:
            raise ValueError("prefix longer than the source context")
        whole_pages = prefix_tokens // self.tokens_per_page
        whole_pages = min(whole_pages, len(source.pages))
        shared = source.pages[:whole_pages]
        self.allocator.share_run(shared)
        self.pages.extend(shared)
        self.tokens = whole_pages * self.tokens_per_page
        self.shared_prefix_pages = whole_pages
        return whole_pages

    def free(self) -> int:
        """Release every page (end of context).  Returns pages released."""
        released = len(self.pages)
        self.allocator.release_run(self.pages)
        self.pages = []
        self.tokens = 0
        self.shared_prefix_pages = 0
        return released

    def fragmentation_bytes(self) -> int:
        """Internal fragmentation: allocated-but-unused tail capacity."""
        if not self.pages:
            return 0
        unused_tokens = self.capacity_tokens - self.tokens
        bytes_per_token = self.allocator.page_bytes / self.tokens_per_page
        return int(unused_tokens * bytes_per_token)
