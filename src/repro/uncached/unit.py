"""The uncached unit: the processor-side interface to uncached space.

Routes every uncached operation the core issues (strictly in program order,
at or after retirement) by page attribute:

* ``UNCACHED`` stores and loads go to the conventional uncached buffer.
* ``UNCACHED_COMBINING`` stores go to the conditional store buffer; a
  ``swap`` to this space is the conditional flush.
* Uncached **loads always bypass the CSB** (paper §3.2: combined stores have
  not been committed yet, so loads are routed like ordinary uncached loads).

The unit also owns the CPU-cycle/bus-cycle boundary: the bus ticks once
every ``cpu_ratio`` CPU cycles, and issue arbitration between the uncached
buffer and a pending CSB burst is strictly by program order (sequence
numbers), preserving strong ordering across the two paths.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.common.config import CSBConfig
from repro.common.errors import SimulationError
from repro.common.stats import StatsCollector
from repro.bus.base import SystemBus
from repro.bus.transaction import BusTransaction, KIND_CSB_FLUSH, KIND_SYNC
from repro.memory.layout import PageAttr
from repro.memory.tlb import AttributeTLB
from repro.observability.events import StoreIssued
from repro.uncached.buffer import UncachedBuffer
from repro.uncached.csb import ConditionalStoreBuffer, FlushResult

ValueCallback = Callable[[int, int], None]  # (value, cpu_cycle)

#: ``next_due`` while no flush result is scheduled.
_NEVER = 1 << 62


class UncachedUnit:
    """Glue between the core's retire stage and the uncached hardware."""

    def __init__(
        self,
        buffer: UncachedBuffer,
        csb: ConditionalStoreBuffer,
        bus: SystemBus,
        tlb: AttributeTLB,
        stats: StatsCollector,
        cpu_ratio: int,
        csb_config: CSBConfig,
        core_id: int = 0,
    ) -> None:
        self.buffer = buffer
        self.csb = csb
        csb.sharers.append(buffer)
        self.bus = bus
        self.tlb = tlb
        self.stats = stats
        self.cpu_ratio = cpu_ratio
        self.csb_config = csb_config
        self.core_id = core_id
        #: Observability event bus; None (the default) means uninstrumented.
        #: The unit ticks first each CPU cycle, so it also advances the
        #: bus's shared clock (see :meth:`tick`).
        self.events = None
        self._sequence = 0
        self._now = 0
        #: Optional RefillEngine with bus priority over the uncached path.
        self.refill_engine = None
        #: Called with ``(address, size)`` when a CSB burst issues; wired
        #: to the data caches' invalidate-on-CSB-write coherence rule
        #: (None — the default — when the D-cache is disabled).
        self.csb_invalidate = None
        # (due_cpu_cycle, callback, value) for CSB flush results.
        self._scheduled: List[Tuple[int, ValueCallback, int]] = []
        #: CPU cycle the earliest scheduled flush result falls due: before
        #: it :meth:`tick_cpu` only moves the unit's clock, so the System's
        #: clock driver calls it only from then on.
        self.next_due = _NEVER
        # Sequence number attached to the oldest pending CSB burst.
        self._csb_burst_seqs: List[int] = []
        self._csb_store_stalls = stats.handle("csb.store_stalls")
        self._csb_flush_stalls = stats.handle("csb.flush_stalls")

    # -- issue API (called by the core at retirement, program order) -----------

    def issue_store(self, address: int, size: int, value: int, pid: int) -> bool:
        """Route an uncached store; False means the core must stall/retry."""
        attr = self.tlb.attribute_of(address)
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "big")
        if size > 8:
            # A VIS-style block store: a pre-combined atomic burst that
            # bypasses both the CSB and the combining machinery.
            if not attr.is_uncached:
                raise SimulationError(
                    f"block store to cached address {address:#x}"
                )
            accepted = self._claim(
                self.buffer.accept_block_store(address, data, self._sequence + 1)
            )
            if accepted and self.events is not None:
                self.events.publish(StoreIssued(address, size, "block", self.core_id))
            return accepted
        if attr is PageAttr.UNCACHED:
            if not self.buffer.accept_store(address, data, self._sequence + 1):
                return False
            self._sequence += 1
            if self.events is not None:
                self.events.publish(StoreIssued(address, size, "buffer", self.core_id))
            return True
        if attr is PageAttr.UNCACHED_COMBINING:
            if not self.csb.line_buffer_free:
                self._csb_store_stalls.bump()
                return False
            self.csb.store(address, data, pid, self.core_id)
            if self.events is not None:
                self.events.publish(StoreIssued(address, size, "csb", self.core_id))
            return True
        raise SimulationError(
            f"uncached unit received a cached store at {address:#x}"
        )

    def issue_load(
        self, address: int, size: int, callback: ValueCallback
    ) -> bool:
        """Route an uncached load; data returns through ``callback``."""
        attr = self.tlb.attribute_of(address)
        if not attr.is_uncached:
            raise SimulationError(f"uncached unit received a cached load at {address:#x}")

        def deliver(data: bytes, _bus_end: int) -> None:
            callback(int.from_bytes(data, "big"), self._now)

        return self._claim(
            self.buffer.accept_load(address, size, self._sequence + 1, deliver)
        )

    def issue_swap(
        self,
        address: int,
        pid: int,
        expected: int,
        callback: ValueCallback,
    ) -> bool:
        """Route an uncached swap.

        In combining space this is the conditional flush: the result
        (``expected`` on success, 0 on conflict) is delivered after the CSB's
        flush latency.  In plain uncached space it is an atomic exchange at
        the device: a read transaction followed by a write of the register
        value (the device serializes, so the pair is atomic on a single bus).
        """
        attr = self.tlb.attribute_of(address)
        if attr is PageAttr.UNCACHED_COMBINING:
            if not self.csb.line_buffer_free:
                self._csb_flush_stalls.bump()
                return False
            result = self.csb.conditional_flush(address, pid, expected, self.core_id)
            if result is FlushResult.SUCCESS:
                self._csb_burst_seqs.append(self._next_seq())
                value = expected
            else:
                value = 0
            due = self._now + self.csb_config.flush_latency
            self._scheduled.append((due, callback, value))
            if due < self.next_due:
                self.next_due = due
            return True
        if attr is PageAttr.UNCACHED:
            return self._issue_uncached_swap(address, expected, callback)
        raise SimulationError(f"uncached unit received a cached swap at {address:#x}")

    def _issue_uncached_swap(
        self, address: int, new_value: int, callback: ValueCallback
    ) -> bool:
        def on_read(data: bytes, _bus_end: int) -> None:
            old = int.from_bytes(data, "big")
            payload = (new_value & ((1 << 64) - 1)).to_bytes(8, "big")
            if not self.buffer.accept_store(address, payload, self._next_seq()):
                raise SimulationError("uncached swap write overflowed the buffer")
            callback(old, self._now)

        return self._claim(
            self.buffer.accept_load(address, 8, self._sequence + 1, on_read)
        )

    def issue_sync(self, address: int, callback: ValueCallback) -> bool:
        """A synchronization broadcast (a store-conditional's bus
        transaction): a doubleword round trip ordered with the uncached
        stream; the callback fires when the transaction completes."""

        def deliver(_data: bytes, _bus_end: int) -> None:
            callback(0, self._now)

        aligned = address - (address % 8)
        return self._claim(
            self.buffer.accept_load(
                aligned, 8, self._sequence + 1, deliver, kind=KIND_SYNC
            )
        )

    def barrier_clear(self) -> bool:
        """True when a membar may graduate: the uncached buffer is empty
        (every earlier uncached transaction has left the buffer)."""
        return self.buffer.empty

    # -- clocking ---------------------------------------------------------------

    def tick(self, cpu_cycle: int) -> None:
        """Advance one CPU cycle: deliver due flush results; on bus-cycle
        boundaries, complete bus transactions and issue new ones.

        This is the standalone (single-initiator) clocking path.  An SMP
        :class:`~repro.sim.system.System` instead calls :meth:`tick_cpu`
        every CPU cycle and lets the shared
        :class:`~repro.bus.arbiter.BusArbiter` drive :meth:`tick_bus`.
        """
        self.tick_cpu(cpu_cycle)
        if cpu_cycle % self.cpu_ratio == 0:
            bus_cycle = cpu_cycle // self.cpu_ratio
            self.bus.tick(bus_cycle)
            if self.refill_engine is not None and self.refill_engine.tick_bus(
                bus_cycle
            ):
                return  # memory traffic won the bus this cycle
            self.tick_bus(bus_cycle)

    def tick_cpu(self, cpu_cycle: int) -> None:
        """CPU-side work for one cycle: deliver due flush results."""
        self._now = cpu_cycle
        if self.events is not None:
            # First component ticked each cycle: advance the shared event
            # clock so every event this cycle is stamped consistently.
            self.events.now = cpu_cycle
        if self.next_due <= cpu_cycle:
            due_now = [item for item in self._scheduled if item[0] <= cpu_cycle]
            self._scheduled = [i for i in self._scheduled if i[0] > cpu_cycle]
            self.next_due = min((i[0] for i in self._scheduled), default=_NEVER)
            for _, callback, value in due_now:
                callback(value, cpu_cycle)

    def next_event(self, cpu_cycle: int) -> Optional[int]:
        """CPU cycle the next flush result falls due (None: none pending);
        :meth:`tick_cpu` changes nothing else (the System's clock jump)."""
        if not self._scheduled:
            return None
        return max(cpu_cycle, self.next_due)

    def next_poll(self, bus_cycle: int) -> Optional[int]:
        """Earliest bus cycle, from ``bus_cycle`` on, at which a grant poll
        (:meth:`tick_bus`) could act: None with nothing to issue."""
        if not self._csb_burst_seqs and self.buffer.empty:
            return None
        allowed = self.bus.next_start_allowed
        return allowed if allowed > bus_cycle else bus_cycle

    def tick_bus(self, bus_cycle: int) -> bool:
        """Program-order arbitration between the buffer and a CSB burst.

        Returns True when a bus transaction was started (the arbiter's
        grant signal: the bus accepts at most one transaction per cycle).
        """
        buffer_seq = self.buffer.head_sequence
        csb_seq = self._csb_burst_seqs[0] if self._csb_burst_seqs else None
        if buffer_seq is None and csb_seq is None:
            return False
        if not self.bus.can_issue(bus_cycle):
            # Flow control refuses any transaction this cycle, and a refused
            # try_issue changes nothing: skip building a plan and a
            # transaction only to have them refused.
            return False
        if csb_seq is None or (buffer_seq is not None and buffer_seq < csb_seq):
            return self.buffer.tick_bus(bus_cycle)
        return self._try_issue_csb_burst(bus_cycle)

    def _try_issue_csb_burst(self, bus_cycle: int) -> bool:
        burst = self.csb.peek_burst()
        if burst is None:
            raise SimulationError("CSB burst sequence recorded but no burst pending")
        if burst.core_id != self.core_id:
            # The shared CSB drains bursts in flush order; the head burst
            # belongs to another core's hand-off port, so stall until that
            # core has issued it.
            return False
        txn = BusTransaction(
            address=burst.address,
            size=len(burst.data),
            kind=KIND_CSB_FLUSH,
            data=burst.data,
            useful_bytes=burst.useful_bytes,
            core_id=self.core_id,
        )
        if self.bus.try_issue(txn, bus_cycle):
            self.csb.pop_burst()
            self._csb_burst_seqs.pop(0)
            if self.csb_invalidate is not None:
                self.csb_invalidate(txn.address, txn.size)
            return True
        return False

    def quiescent(self) -> bool:
        """No pending work anywhere (used by the system run loop)."""
        return (
            self.buffer.empty
            and self.csb.pending_bursts == 0
            and not self._scheduled
            and self.bus.drain_complete()
        )

    def _next_seq(self) -> int:
        self._sequence += 1
        return self._sequence

    def _claim(self, accepted: bool) -> bool:
        """Consume the sequence number (``_sequence + 1``) offered to an
        operation if the buffer accepted it.  A refused issue leaves the
        unit untouched, so a stalled core's retry polls change nothing
        here but stall counters."""
        if accepted:
            self._sequence += 1
        return accepted
