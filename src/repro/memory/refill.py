"""Optional cache-refill bus occupancy.

The paper's bandwidth experiments assume "the bus is ... completely idle,
except for the uncached data transfers" (§4.3.1), and the hierarchy's
fixed 100-cycle miss charge matches that.  Enabling
``MemoryHierarchyConfig.refills_use_bus`` adds the *occupancy* side of
misses: each main-memory miss also queues a line-sized read transaction
that competes with the uncached stream for the bus (memory traffic gets
priority, as cache refills do on real buses).  The miss *latency* model is
unchanged — this knob quantifies how a non-idle bus squeezes uncached
store bandwidth.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.common.stats import StatsCollector
from repro.bus.base import SystemBus
from repro.bus.transaction import BusTransaction, KIND_REFILL, KIND_WRITEBACK
from repro.memory.backing import BackingStore


class RefillEngine:
    """Queues line refills and drives them onto the bus."""

    def __init__(self, bus: SystemBus, line_size: int, stats: StatsCollector) -> None:
        self.bus = bus
        self.line_size = line_size
        self.stats = stats
        #: Observability event bus; None (the default) means uninstrumented.
        self.events = None
        #: Fault-injection plan; None (the default) means fault-free.
        self.faults = None
        self._pending: Deque[int] = deque()
        # Transient-stall bookkeeping: one fault draw per queue head, made
        # when the head is first considered for issue.
        self._head_drawn = False
        self._stall_until = -1
        self._requests = stats.handle("refill.requests")
        self._issued = stats.handle("refill.issued")
        self._refill_stalls = stats.handle("faults.refill_stall")

    def request(self, address: int) -> None:
        """Queue a refill for the line containing ``address``."""
        line = address - (address % self.line_size)
        self._pending.append(line)
        self._requests.bump()

    def next_poll(self, bus_cycle: int) -> Optional[int]:
        """Earliest bus cycle, from ``bus_cycle`` on, at which a grant poll
        could act: None with nothing queued.  A head not yet considered
        draws its stall fault on the next poll, even one the bus refuses."""
        if not self._pending:
            return None
        if self.faults is not None and not self._head_drawn:
            return bus_cycle
        return max(bus_cycle, self._stall_until, self.bus.next_start_allowed)

    def tick_bus(self, bus_cycle: int) -> bool:
        """Issue the oldest pending refill if the bus allows.  Returns True
        when a transaction started (the uncached path then yields)."""
        if not self._pending:
            return False
        if self.faults is not None:
            if not self._head_drawn:
                # One draw per refill: does the memory controller hiccup?
                self._head_drawn = True
                stall = self.faults.refill_stall()
                if stall:
                    self._stall_until = bus_cycle + stall
                    self._refill_stalls.bump()
                    if self.events is not None:
                        from repro.observability.events import FaultInjected

                        self.events.publish(
                            FaultInjected(
                                "refill_stall",
                                address=self._pending[0],
                                cycles=stall,
                            )
                        )
            if bus_cycle < self._stall_until:
                return False
        txn = BusTransaction(
            address=self._pending[0],
            size=self.line_size,
            kind=KIND_REFILL,
        )
        if not self.bus.try_issue(txn, bus_cycle):
            return False
        self._pending.popleft()
        self._head_drawn = False
        self._stall_until = -1
        self._issued.bump()
        return True

    @property
    def pending(self) -> int:
        return len(self._pending)


class WritebackEngine:
    """Queues dirty-victim line write-backs and drives them onto the bus.

    The counterpart of :class:`RefillEngine` for the other half of cache
    miss traffic: when the data cache evicts a dirty line (and
    ``MemoryConfig.bus_traffic`` is on), the line's bytes travel to main
    memory as a :data:`~repro.bus.transaction.KIND_WRITEBACK` burst.  The
    engine sits at arbiter priority class 2 — *below* refills and the
    cores — because a write-back is never on any operation's critical
    path: the victim's data was snapshotted at eviction time, so draining
    late only delays bus availability, never correctness.
    """

    def __init__(
        self,
        bus: SystemBus,
        line_size: int,
        stats: StatsCollector,
        backing: BackingStore,
    ) -> None:
        self.bus = bus
        self.line_size = line_size
        self.stats = stats
        self.backing = backing
        #: Observability event bus; None (the default) means uninstrumented.
        self.events = None
        self._pending: Deque[Tuple[int, bytes]] = deque()
        self._requests = stats.handle("writeback.requests")
        self._issued = stats.handle("writeback.issued")

    def request(self, address: int) -> None:
        """Queue a write-back of the line containing ``address``.

        The line's bytes are snapshotted now — eviction time — so the
        transaction carries what the cache held, however late the bus
        grants it.
        """
        line = address - (address % self.line_size)
        data = self.backing.read_bytes(line, self.line_size)
        self._pending.append((line, data))
        self._requests.bump()

    def next_poll(self, bus_cycle: int) -> Optional[int]:
        """Earliest bus cycle, from ``bus_cycle`` on, at which a grant poll
        could act: None with nothing queued."""
        if not self._pending:
            return None
        return max(bus_cycle, self.bus.next_start_allowed)

    def tick_bus(self, bus_cycle: int) -> bool:
        """Issue the oldest pending write-back if the bus allows.  Returns
        True when a transaction started (lower-priority traffic yields)."""
        if not self._pending:
            return False
        line, data = self._pending[0]
        txn = BusTransaction(
            address=line,
            size=self.line_size,
            kind=KIND_WRITEBACK,
            data=data,
        )
        if not self.bus.try_issue(txn, bus_cycle):
            return False
        self._pending.popleft()
        self._issued.bump()
        return True

    @property
    def pending(self) -> int:
        return len(self._pending)
