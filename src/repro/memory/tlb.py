"""A small fully-associative TLB caching page attributes.

The paper's CSB enable bit lives in the page-table entry (§3.1), so every
memory operation consults the page attribute.  Modeling the TLB keeps that
path explicit and lets tests assert that attribute lookups behave like the
hardware would (LRU replacement, per-page granularity).  TLB refills are
assumed free — the microbenchmark kernels touch a handful of pages, so a
miss-cost model would only add noise.

A sleeping core skips the lookups its stalled retries would make and
pays their hits at once (``Core._pay``), so :attr:`AttributeTLB.hits`
and ``misses`` read what ticking every cycle gives.  The LRU moves of
those lookups are skipped; no run can tell, since none touches more than
3 pages of the 64 entries, so nothing is ever evicted.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.errors import ConfigError
from repro.memory.layout import AddressSpace, PageAttr


class AttributeTLB:
    """LRU cache of page -> :class:`PageAttr` translations."""

    def __init__(self, space: AddressSpace, entries: int = 64) -> None:
        if entries < 1:
            raise ConfigError("TLB needs at least one entry")
        self._space = space
        self._entries = entries
        self._cache: "OrderedDict[int, PageAttr]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def attribute_of(self, address: int) -> PageAttr:
        page = address // self._space.page_size
        attr = self._cache.get(page)
        if attr is not None:
            self.hits += 1
            self._cache.move_to_end(page)
            return attr
        self.misses += 1
        attr = self._space.attribute_of(address)
        self._cache[page] = attr
        if len(self._cache) > self._entries:
            self._cache.popitem(last=False)
        return attr

    def flush(self) -> None:
        """Invalidate all entries (e.g. after remapping a region)."""
        self._cache.clear()

    @property
    def occupancy(self) -> int:
        return len(self._cache)
