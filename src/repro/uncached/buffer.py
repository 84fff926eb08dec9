"""The conventional uncached buffer, with optional hardware combining.

This models the spectrum of uncached store policies found in real processors
(paper §2, §4.1): from strictly non-combining (every store is its own bus
transaction) through PowerPC-620-style pairs up to R10000-style full-line
combining, controlled by the ``combine_block`` entry size.

Rules (paper §4.1):

* Entries are processed in FIFO order.
* A store may coalesce into an existing entry if its address falls in the
  same block and it does not bypass an earlier load or barrier.  Combining
  is only possible while the entry is still waiting in the buffer —
  combining is a race between the core filling and the bus draining.
* Loads block the head of the FIFO until their data returns (strong
  ordering), and a store never combines past a load.
* A partially filled entry drains as a sequence of naturally aligned
  power-of-two transactions (the bus alignment restriction).
"""

from __future__ import annotations

from typing import Callable, Deque, List, Optional, Tuple, Union
from collections import deque

from repro.common.bitops import block_base
from repro.common.config import UncachedBufferConfig
from repro.common.errors import SimulationError
from repro.common.stats import StatsCollector
from repro.bus.base import SystemBus
from repro.bus.transaction import (
    BusTransaction,
    KIND_UNCACHED_LOAD,
    KIND_UNCACHED_STORE,
)
from repro.uncached.entry import LoadEntry, StoreEntry

Entry = Union[StoreEntry, LoadEntry]


class UncachedBuffer:
    """FIFO of pending uncached operations in front of the system bus."""

    def __init__(
        self,
        config: UncachedBufferConfig,
        bus: SystemBus,
        stats: StatsCollector,
        core_id: int = 0,
    ) -> None:
        from repro.uncached.policies import make_policy

        self.config = config
        self.bus = bus
        self.stats = stats
        self.core_id = core_id
        self.policy = make_policy(config)
        #: Observability event bus; None (the default) means uninstrumented.
        self.events = None
        self._entries: Deque[Entry] = deque()
        # Transactions of the head store entry, frozen at first issue.
        self._head_plan: Optional[List[Tuple[int, int, bytes]]] = None
        self._pending_load_txn: Optional[BusTransaction] = None
        #: Moves when this buffer stops being full or becomes empty, and
        #: when the shared CSB frees a line buffer (see
        #: :meth:`ConditionalStoreBuffer.pop_burst`): the only changes on
        #: the uncached path that a stalled retire stage can see.  A
        #: sleeping core wakes when it moves (``Core.tick``).
        self.wake_mark = 0
        #: Moves only when this buffer becomes empty: all a ``membar`` at
        #: the head of the ROB waits for, so a core asleep on one compares
        #: this mark instead.
        self.empty_mark = 0
        self._stores_combined = stats.handle("uncached.stores_combined")
        self._full_stalls = stats.handle("uncached.full_stalls")
        self._entries_allocated = stats.handle("uncached.entries_allocated")
        self._block_stores = stats.handle("uncached.block_stores")

    # -- enqueue (called by the core, program order) ---------------------------

    def accept_store(self, address: int, data: bytes, sequence: int) -> bool:
        """Enqueue (or coalesce) a store; False when the buffer is full."""
        size = len(data)
        entry = self._combining_candidate(address, size)
        if entry is not None:
            entry.write(address, data)
            self._stores_combined.bump()
            if self.events is not None:
                from repro.observability.events import CombineHit

                self.events.publish(CombineHit(address, size, self.core_id))
            return True
        if len(self._entries) >= self.config.depth:
            self._full_stalls.bump()
            return False
        if self.policy.new_entry_closes_older:
            for older in self._entries:
                if isinstance(older, StoreEntry):
                    older.closed = True
        base = block_base(address, self.config.combine_block)
        new_entry = StoreEntry(base, self.config.combine_block, sequence)
        new_entry.write(address, data)
        self._entries.append(new_entry)
        self._entries_allocated.bump()
        return True

    def accept_block_store(
        self, address: int, data: bytes, sequence: int
    ) -> bool:
        """Enqueue a VIS-style block store: a pre-combined full line that
        drains as one atomic burst, regardless of the combining policy.
        False when the buffer is full."""
        if len(self._entries) >= self.config.depth:
            self._full_stalls.bump()
            return False
        entry = StoreEntry(address, len(data), sequence)
        entry.write(address, data)
        entry.closed = True  # nothing may coalesce into a block store
        self._entries.append(entry)
        self._block_stores.bump()
        return True

    def accept_load(
        self,
        address: int,
        size: int,
        sequence: int,
        on_data: Callable[[bytes, int], None],
        kind: str = KIND_UNCACHED_LOAD,
    ) -> bool:
        """Enqueue a load (or a sync broadcast); False when full."""
        if len(self._entries) >= self.config.depth:
            self._full_stalls.bump()
            return False
        self._entries.append(LoadEntry(address, size, sequence, on_data, kind=kind))
        return True

    def _combining_candidate(self, address: int, size: int) -> Optional[StoreEntry]:
        """Entry this store may coalesce into, honoring the no-bypass rules.

        Scanning newest to oldest: a load entry stops the search (a store
        may not bypass an earlier load), and so does any same-block entry
        we cannot merge into — merging past it into an older entry would
        reorder same-address stores, violating the in-order exactly-once
        contract.  Entries for other blocks may be bypassed.
        """
        if not self.config.combining:
            return None
        for entry in reversed(self._entries):
            if isinstance(entry, LoadEntry):
                return None
            if entry.covers(address):
                if self.policy.may_combine(entry, address, size):
                    return entry
                return None
        return None

    # -- drain (called on bus cycles) ------------------------------------------

    def tick_bus(self, bus_cycle: int) -> bool:
        """Try to make progress on the head entry.  Returns True if a
        transaction was started this cycle."""
        if not self._entries:
            return False
        head = self._entries[0]
        if isinstance(head, LoadEntry):
            return self._issue_load(head, bus_cycle)
        return self._issue_store_piece(head, bus_cycle)

    def _issue_load(self, head: LoadEntry, bus_cycle: int) -> bool:
        if head.issued:
            return False  # Waiting for data; FIFO is blocked.
        txn = BusTransaction(
            address=head.address,
            size=head.size,
            kind=head.kind,
            on_complete=lambda end, h=head: self._load_done(h, end),
            core_id=self.core_id,
        )
        if not self.bus.try_issue(txn, bus_cycle):
            return False
        head.issued = True
        self._pending_load_txn = txn
        return True

    def _load_done(self, head: LoadEntry, end_cycle: int) -> None:
        if not self._entries or self._entries[0] is not head:
            raise SimulationError("uncached load completed out of FIFO order")
        self._entries.popleft()
        self._popped()
        txn = self._pending_load_txn
        self._pending_load_txn = None
        assert txn is not None and txn.result_data is not None
        head.on_data(txn.result_data, end_cycle)

    def _issue_store_piece(self, head: StoreEntry, bus_cycle: int) -> bool:
        # The transaction plan is only frozen once the bus accepts the first
        # piece; until then the entry keeps combining, so recompute.
        plan = self._head_plan
        if plan is None:
            if head.block_size != self.config.combine_block:
                # A block-store entry: always one full burst.
                plan = [(head.base, head.block_size, bytes(head.data))]
            else:
                plan = self.policy.plan(head)
            if not plan:
                raise SimulationError("store entry with no valid bytes at head")
        address, size, data = plan[0]
        txn = BusTransaction(
            address=address,
            size=size,
            kind=KIND_UNCACHED_STORE,
            data=data,
            core_id=self.core_id,
        )
        if not self.bus.try_issue(txn, bus_cycle):
            return False
        head.frozen = True  # No combining once transfer has begun.
        self._head_plan = plan[1:]
        if not self._head_plan:
            self._entries.popleft()
            self._head_plan = None
            self._popped()
        return True

    def _popped(self) -> None:
        """The head entry left.  Only now can the core's refused issues
        change their answer: a full buffer refuses whatever cannot combine,
        and nothing but a pop makes room or a new combining candidate
        (freezing the head takes one away); a ``membar`` waits for empty."""
        left = len(self._entries)
        if not left:
            self.wake_mark += 1
            self.empty_mark += 1
        elif left == self.config.depth - 1:
            self.wake_mark += 1

    # -- state queries ----------------------------------------------------------

    @property
    def empty(self) -> bool:
        """True when every operation has left the buffer (stores fully
        issued to the bus, loads completed).  This is what a membar waits
        for (paper §4.1)."""
        return not self._entries

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def head_sequence(self) -> Optional[int]:
        """Sequence number of the oldest entry (for bus arbitration)."""
        if not self._entries:
            return None
        return self._entries[0].sequence
