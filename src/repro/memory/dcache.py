"""Non-blocking, write-allocate data cache with an MSHR file.

This is the first-class D-cache behind :class:`~repro.common.config.MemoryConfig`
(enabled per-system, one instance per core).  Like
:class:`~repro.memory.cache.CacheLevel` it is a presence/latency model — the
functional bytes stay in the :class:`~repro.memory.backing.BackingStore` — but
unlike the blocking hierarchy it resolves misses asynchronously:

* A **hit** completes in ``hit_latency`` CPU cycles.
* A **primary miss** allocates an MSHR whose refill lands ``miss_latency``
  cycles later; the requesting operation sleeps until then, while the core
  keeps issuing other work (the non-blocking property).
* A **secondary miss** to a line with an MSHR outstanding merges into it and
  wakes at the same refill time (no new memory traffic).
* When all MSHRs are busy, further misses stall at issue until an entry
  frees (``can_accept`` is the poll; stalled polls are counted).

Refills install at their precomputed ready time via the lazy :meth:`drain`
walk — there is no per-cycle cache tick.  Evicting a dirty victim under the
write-back policy raises ``writeback_hook`` (wired to the bus write-back
engine when ``MemoryConfig.bus_traffic`` is on); a primary miss raises
``refill_hook`` (wired to the shared refill engine, priority class 0).

Coherence is deliberately minimal — an invalidate protocol, not MESI: a
store makes the writer's line dirty and drops the line from every peer
cache, and a CSB flush drops the flushed span from *all* caches
(:meth:`invalidate_span`), which keeps cached copies of combining-space
lines coherent with CSB bursts.  Invalidations discard dirty state without
a write-back: the functional data plane is shared, so only timing is
approximated, never values.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from repro.common.bitops import block_base
from repro.common.config import MemoryConfig
from repro.memory.cache import UNTOUCHED_SET, fill_set


class DLineState(enum.Enum):
    """State of a resident line; absent lines are implicitly invalid."""

    CLEAN = "clean"
    DIRTY = "dirty"


class MSHR:
    """One miss-status holding register: an outstanding line refill."""

    __slots__ = ("line", "ready_at", "dirty", "merges")

    def __init__(self, line: int, ready_at: int, dirty: bool) -> None:
        self.line = line
        self.ready_at = ready_at
        #: Install the line dirty (some merged access was a store).
        self.dirty = dirty
        self.merges = 0


class DataCache:
    """Per-core non-blocking D-cache (set-associative, LRU, write-allocate).

    The caller drives it with three calls:

    * :meth:`can_accept` — may this access enter the cache *now*?  False
      only on MSHR capacity exhaustion (the capacity stall).
    * :meth:`access` — perform the timing access; returns the CPU cycle the
      value is ready (hit) or the refill lands (miss).
    * :meth:`drain` — retire refills whose time has come (called lazily
      before any state-dependent operation; idempotent).
    """

    def __init__(self, config: MemoryConfig, name: str = "dcache") -> None:
        self.config = config
        self.name = name
        # Each set's LRU map is created on first install (see UNTOUCHED_SET).
        self._sets: List["OrderedDict[int, DLineState]"] = [
            UNTOUCHED_SET
        ] * config.num_sets
        #: Outstanding refills, keyed by line base address.  Insertion
        #: order equals allocation order equals ready order (the miss
        #: latency is constant), so :meth:`drain` pops from the front.
        self._mshrs: "OrderedDict[int, MSHR]" = OrderedDict()
        #: Peer caches (other cores) for the invalidate-on-write rule.
        self.peers: List["DataCache"] = []
        #: Called with the line address on every primary miss (bus refill
        #: traffic); None means refills complete silently at fixed latency.
        self.refill_hook: Optional[Callable[[int], None]] = None
        #: Called with the victim line address when a dirty line is
        #: evicted; None means write-backs complete silently.
        self.writeback_hook: Optional[Callable[[int], None]] = None
        #: Observability event bus; None (the default) means uninstrumented.
        self.events = None
        self.hits = 0
        self.misses = 0
        self.mshr_merges = 0
        self.mshr_stall_cycles = 0
        self.writebacks = 0
        self.writethroughs = 0
        self.coherence_invalidations = 0
        self.csb_invalidations = 0

    # -- address helpers -----------------------------------------------------

    def _index(self, address: int) -> int:
        return (address // self.config.line_size) % self.config.num_sets

    def _set_for(self, address: int) -> "OrderedDict[int, DLineState]":
        return self._sets[self._index(address)]

    def _line(self, address: int) -> int:
        return block_base(address, self.config.line_size)

    # -- the access protocol -------------------------------------------------

    def can_accept(self, address: int, now: int) -> bool:
        """May an access to ``address`` enter the cache at cycle ``now``?

        The only refusal is MSHR capacity: the access would be a primary
        miss and every MSHR is busy.  A refused poll counts one
        ``mshr_stall_cycles`` (the caller polls once per cycle).
        """
        self.drain(now)
        line = self._line(address)
        if line in self._set_for(address) or line in self._mshrs:
            return True
        if len(self._mshrs) < self.config.mshrs:
            return True
        self.mshr_stall_cycles += 1
        return False

    def access(self, address: int, is_write: bool, now: int) -> int:
        """Perform the timing side of one access; returns the CPU cycle at
        which it completes.  Only call after :meth:`can_accept` said yes.

        Updates LRU/dirty state, allocates or merges MSHRs, and publishes
        coherence invalidations to peer caches on writes.
        """
        self.drain(now)
        cache_set = self._set_for(address)
        line = self._line(address)
        writethrough = self.config.write_policy == "writethrough"
        if line in cache_set:
            self.hits += 1
            cache_set.move_to_end(line)
            if is_write:
                self._invalidate_peers(line)
                if writethrough:
                    # No write buffer modeled: the store also pays the
                    # memory write before the core may proceed.
                    self.writethroughs += 1
                    return now + self.config.miss_latency
                cache_set[line] = DLineState.DIRTY
            return now + self.config.hit_latency
        if is_write and writethrough:
            # Write-through is no-write-allocate: the store goes straight
            # to memory without touching MSHRs or residency.
            self.misses += 1
            self.writethroughs += 1
            self._invalidate_peers(line)
            return now + self.config.miss_latency
        mshr = self._mshrs.get(line)
        if mshr is not None:
            # Secondary miss: piggyback on the outstanding refill.
            self.mshr_merges += 1
            mshr.merges += 1
            if is_write:
                mshr.dirty = True
            return mshr.ready_at
        self.misses += 1
        mshr = MSHR(line, now + self.config.miss_latency, dirty=is_write)
        self._mshrs[line] = mshr
        if self.refill_hook is not None:
            self.refill_hook(line)
        if self.events is not None:
            from repro.observability.events import CacheMiss

            self.events.publish(CacheMiss(address, self.name))
        return mshr.ready_at

    def drain(self, now: int) -> None:
        """Install every refill whose ready time has passed (in order)."""
        while self._mshrs:
            line, mshr = next(iter(self._mshrs.items()))
            if mshr.ready_at > now:
                break
            del self._mshrs[line]
            self._install(line, mshr.dirty)
            if mshr.dirty:
                self._invalidate_peers(line)

    def _install(self, line: int, dirty: bool) -> None:
        cache_set = fill_set(self._sets, self._index(line))
        if line not in cache_set and len(cache_set) >= self.config.associativity:
            victim, state = cache_set.popitem(last=False)
            if state is DLineState.DIRTY:
                self.writebacks += 1
                if self.writeback_hook is not None:
                    self.writeback_hook(victim)
                if self.events is not None:
                    from repro.observability.events import CacheWriteback

                    self.events.publish(CacheWriteback(victim, self.name))
        cache_set[line] = DLineState.DIRTY if dirty else DLineState.CLEAN
        cache_set.move_to_end(line)
        if self.events is not None:
            from repro.observability.events import CacheRefill

            self.events.publish(CacheRefill(line, self.name))

    # -- coherence -----------------------------------------------------------

    def _invalidate_peers(self, line: int) -> None:
        for peer in self.peers:
            peer.snoop_invalidate(line)

    def snoop_invalidate(self, line: int) -> None:
        """Drop ``line`` because another agent wrote it (no write-back:
        the functional data plane is shared)."""
        cache_set = self._set_for(line)
        if cache_set.pop(line, None) is not None:
            self.coherence_invalidations += 1

    def invalidate_span(self, base: int, size: int) -> None:
        """Drop every line overlapping ``[base, base+size)`` — the
        invalidate-on-CSB-write coherence rule for combining-space lines."""
        line = self._line(base)
        end = base + max(size, 1)
        while line < end:
            cache_set = self._set_for(line)
            if cache_set.pop(line, None) is not None:
                self.csb_invalidations += 1
            line += self.config.line_size

    # -- introspection / helpers ---------------------------------------------

    def probe(self, address: int) -> bool:
        """Non-destructive presence check (no LRU update, no counters)."""
        return self._line(address) in self._set_for(address)

    def warm(self, address: int) -> None:
        """Install the line clean without counting an access."""
        self._install(self._line(address), dirty=False)

    def quiescent(self) -> bool:
        """True when no refill is outstanding."""
        return not self._mshrs

    def next_fill(self, now: int) -> Optional[int]:
        """Earliest refill landing after ``now`` (None if there is none):
        the next cycle at which :meth:`can_accept` may change its answer."""
        for mshr in self._mshrs.values():
            if mshr.ready_at > now:
                return mshr.ready_at
        return None

    @property
    def outstanding(self) -> int:
        return len(self._mshrs)

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def dirty_lines(self) -> List[int]:
        """Addresses of all dirty lines (diagnostics and invariant tests)."""
        return [
            line
            for cache_set in self._sets
            for line, state in cache_set.items()
            if state is DLineState.DIRTY
        ]

    def counters(self) -> Dict[str, int]:
        """Counter snapshot for metrics (stable key order)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "mshr_merges": self.mshr_merges,
            "mshr_stall_cycles": self.mshr_stall_cycles,
            "writebacks": self.writebacks,
            "writethroughs": self.writethroughs,
            "coherence_invalidations": self.coherence_invalidations,
            "csb_invalidations": self.csb_invalidations,
        }


def wire_peers(caches: List[DataCache]) -> None:
    """Make every cache snoop every other (the SMP invalidate mesh)."""
    for cache in caches:
        cache.peers = [peer for peer in caches if peer is not cache]
