"""Set-associative write-back cache model.

This is a presence/latency model: the functional data lives in the
:class:`~repro.memory.backing.BackingStore`, while the cache tracks which
lines are resident and dirty so that hit/miss latencies (and therefore the
paper's Figure 5 lock-overhead numbers) come out right.  Replacement is LRU
within a set; the write policy is write-back, write-allocate.

A core asleep in a spin loop watches the L1 line its loop hits
(:meth:`CacheLevel.watch`): a lookup or fill of another tag in that line's
set, or an invalidation there, wakes it first, so the set's LRU order ends
as the sleeper's own hits would have left it (see
:meth:`repro.cpu.core.Core.tick`).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.common.bitops import block_base
from repro.common.config import CacheConfig


class LineState(enum.Enum):
    """State of a resident line; absent lines are implicitly invalid."""

    CLEAN = "clean"
    DIRTY = "dirty"


class _UntouchedSet(OrderedDict):
    """The one empty set standing in for every set no line was filled into.

    A system builds thousands of sets and most runs touch a handful, so a
    set's own LRU map is created on first fill (see :func:`fill_set`).
    Lookups, ``pop`` and ``clear`` work on the stand-in unchanged; adding a
    line to it is a bug and fails loudly.
    """

    def __setitem__(self, key: Any, value: Any) -> None:
        raise TypeError("cache set filled before it was created")


UNTOUCHED_SET: "OrderedDict[Any, Any]" = _UntouchedSet()


def fill_set(
    sets: List["OrderedDict[Any, Any]"], index: int
) -> "OrderedDict[Any, Any]":
    """``sets[index]``, created on first use, for a caller about to add a
    line to it."""
    cache_set = sets[index]
    if isinstance(cache_set, _UntouchedSet):
        cache_set = sets[index] = OrderedDict()
    return cache_set


class CacheLevel:
    """One level of the hierarchy."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self._sets: List["OrderedDict[int, LineState]"] = [
            UNTOUCHED_SET
        ] * config.num_sets
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        #: set index -> ``(tag, watcher)`` pairs (see :meth:`watch`); None
        #: while nothing is watched
        self.watchers: Optional[Dict[int, List[Tuple[int, Any]]]] = None

    def _index(self, address: int) -> int:
        return (address // self.config.line_size) % self.config.num_sets

    def _set_for(self, address: int) -> "OrderedDict[int, LineState]":
        return self._sets[self._index(address)]

    def _tag(self, address: int) -> int:
        return block_base(address, self.config.line_size)

    def probe(self, address: int) -> bool:
        """Non-destructive presence check (no LRU update, no counters)."""
        return self._tag(address) in self._set_for(address)

    def lookup(self, address: int, is_write: bool) -> bool:
        """Access the line: returns True on hit, updating LRU and counters.

        A write hit marks the line dirty (write-back policy).
        """
        index = self._index(address)
        tag = self._tag(address)
        if self.watchers is not None:
            self._disturb(index, tag)
        cache_set = self._sets[index]
        if tag in cache_set:
            self.hits += 1
            cache_set.move_to_end(tag)
            if is_write:
                cache_set[tag] = LineState.DIRTY
            return True
        self.misses += 1
        return False

    def fill(self, address: int, dirty: bool = False) -> Optional[int]:
        """Bring the line in (write-allocate); returns the address of an
        evicted dirty line, or None."""
        index = self._index(address)
        tag = self._tag(address)
        if self.watchers is not None:
            self._disturb(index, tag)
        cache_set = fill_set(self._sets, index)
        evicted: Optional[int] = None
        if tag not in cache_set and len(cache_set) >= self.config.associativity:
            victim_tag, victim_state = cache_set.popitem(last=False)
            if victim_state is LineState.DIRTY:
                self.writebacks += 1
                evicted = victim_tag
        state = LineState.DIRTY if dirty else cache_set.get(tag, LineState.CLEAN)
        if dirty:
            state = LineState.DIRTY
        cache_set[tag] = state
        cache_set.move_to_end(tag)
        return evicted

    def invalidate(self, address: int) -> None:
        """Drop the line if resident (used to create cold-miss scenarios)."""
        index = self._index(address)
        if self.watchers is not None:
            self._disturb(index, None)
        self._sets[index].pop(self._tag(address), None)

    def invalidate_all(self) -> None:
        if self.watchers is not None:
            for index in list(self.watchers):
                self._disturb(index, None)
        for cache_set in self._sets:
            cache_set.clear()

    # -- the watch ------------------------------------------------------------

    def watch(self, address: int, watcher: Any) -> None:
        """Call ``watcher.wake()`` before a lookup or fill of any other
        line in ``address``'s set, or before an invalidation there, until
        :meth:`unwatch`.  Lookups of the watched line itself only move it
        to most-recently-used, as the watcher's own hits would."""
        watchers = self.watchers
        if watchers is None:
            watchers = self.watchers = {}
        watchers.setdefault(self._index(address), []).append(
            (self._tag(address), watcher)
        )

    def unwatch(self, address: int, watcher: Any) -> None:
        watchers = self.watchers
        assert watchers is not None
        index = self._index(address)
        listed = watchers[index]
        listed.remove((self._tag(address), watcher))
        if not listed:
            del watchers[index]
            if not watchers:
                self.watchers = None

    def _disturb(self, index: int, tag: Optional[int]) -> None:
        """Wake the watchers of set ``index`` that watch a tag other than
        ``tag`` (every one for None)."""
        assert self.watchers is not None
        listed = self.watchers.get(index)
        if listed:
            for watched, watcher in list(listed):
                if watched != tag:
                    watcher.wake()

    def is_mru(self, address: int) -> bool:
        """The line is resident and most-recently-used in its set."""
        cache_set = self._set_for(address)
        return bool(cache_set) and next(reversed(cache_set)) == self._tag(address)

    def dirty_lines(self) -> List[int]:
        """Addresses of all dirty lines (diagnostics and invariant tests)."""
        return [
            tag
            for cache_set in self._sets
            for tag, state in cache_set.items()
            if state is LineState.DIRTY
        ]

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)
