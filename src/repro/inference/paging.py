"""PagedAttention-style KV page allocation [22].

The paper leans on two properties of paged KV management: pages are
large ("typically over 10 vectors ... several MBs to 10s of MBs") and
read strictly in order with a *static* virtual-to-physical mapping —
which is why MRM can drop random access.

:class:`PagedAllocator` manages the physical page pool of one memory
tier; :class:`PageTable` is one context's ordered page list.  Every
page belongs to exactly one context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence


class OutOfPages(RuntimeError):
    """The physical pool is exhausted (admission control should have
    prevented this — or the caller must evict/offload)."""


class PagedAllocator:
    """Physical page pool.

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
        #: Per page id: held by a context (releasing a free page raises).
        self._allocated: List[bool] = [False] * total_pages

    @property
    def free_pages(self) -> int:
        return len(self._free)

    @property
    def used_pages(self) -> int:
        return self.total_pages - len(self._free)

    def allocate_run(self, count: int) -> List[int]:
        """Take ``count`` physical pages, or none.

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
        allocated = self._allocated
        for page in pages:
            allocated[page] = True
        return pages

    def release_run(self, pages: Sequence[int]) -> None:
        """Free each of ``pages``, in order; they join the free list in
        run order.

        A page that is not allocated raises ``KeyError`` after the pages
        before it are released, as one-page releases would.
        """
        allocated = self._allocated
        free = self._free
        for page in pages:
            if not allocated[page]:
                raise KeyError(f"page {page} is not allocated")
            allocated[page] = False
            free.append(page)


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

    def __post_init__(self) -> None:
        if self.tokens_per_page < 1:
            raise ValueError("tokens_per_page must be >= 1")

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

    def free(self) -> int:
        """Release every page (end of context).  Returns pages released."""
        released = len(self.pages)
        self.allocator.release_run(self.pages)
        self.pages = []
        self.tokens = 0
        return released
