"""The Conditional Store Buffer (paper §3.2) — the core contribution.

State: one cache line of data with per-byte validity (an int bitmask),
the line-aligned address and process ID of the most recent combining
store, and a *hit counter* counting consecutive conflict-free stores.

Protocol:

* A **combining store** whose line address and process ID match the saved
  values is merged and increments the hit counter.  Any mismatch clears the
  buffer, installs the new store, and resets the counter to 1.  Stores may
  arrive in any order within the line — only the count matters for conflict
  detection.
* A **conditional flush** (the ``swap`` variant) supplies the expected
  counter value.  If the counter, address (optional check), and process ID
  all match, the buffered line is issued as a single atomic burst
  transaction and the swap returns the expected value; otherwise the buffer
  is cleared, the counter resets to zero, and the swap returns 0 so software
  can branch back and retry.

The buffer is always cleared before a new sequence starts filling it, so
unused words of the full-line burst are zero — the paper's defense against
leaking a previous process's data.

Line-buffer occupancy: after a successful flush, the line's contents are
handed to the system interface.  With one line buffer, further combining
stores stall until the burst has been accepted by the bus; a second line
buffer (``num_line_buffers=2``) lets the next sequence start filling while
the previous burst is still queued (paper §3.2's pipelining extension).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Deque, List, Optional
from collections import deque

from repro.common.bitops import block_base
from repro.common.config import CSBConfig
from repro.common.errors import SimulationError
from repro.common.stats import StatsCollector

if TYPE_CHECKING:
    from repro.uncached.buffer import UncachedBuffer


class FlushResult(enum.Enum):
    """Outcome of a conditional flush attempt."""

    SUCCESS = "success"
    CONFLICT = "conflict"


class PendingBurst:
    """A flushed line awaiting hand-off to the bus.

    ``core_id`` records which core's flush produced the burst: with the CSB
    shared among several cores, only the owning core's uncached unit may
    hand the burst to the bus (the hand-off port is per core).
    """

    __slots__ = ("address", "data", "useful_bytes", "sequence", "core_id")

    def __init__(
        self,
        address: int,
        data: bytes,
        useful_bytes: int,
        sequence: int,
        core_id: int = 0,
    ):
        self.address = address
        self.data = data
        self.useful_bytes = useful_bytes
        self.sequence = sequence
        self.core_id = core_id


class ConditionalStoreBuffer:
    """Architectural model of the CSB (timing lives in the uncached unit)."""

    def __init__(self, config: CSBConfig, stats: StatsCollector) -> None:
        self.config = config
        self.stats = stats
        #: Observability event bus; None (the default) means uninstrumented.
        self.events = None
        #: Fault-injection plan; None (the default) means fault-free.
        self.faults = None
        self._line_addr: Optional[int] = None
        self._pid: Optional[int] = None
        self._data = bytearray(config.line_size)
        #: bit ``i`` set: byte ``i`` of the line holds store data
        self._valid = 0
        self._hit_counter = 0
        self._pending: Deque[PendingBurst] = deque()
        #: The uncached buffers of the cores sharing this CSB (each
        #: :class:`~repro.uncached.unit.UncachedUnit` adds its own): a
        #: freed line buffer moves every one's ``wake_mark``.
        self.sharers: List["UncachedBuffer"] = []
        self._sequences_started = stats.handle("csb.sequences_started")
        self._stores = stats.handle("csb.stores")
        self._spurious_aborts = stats.handle("faults.csb_spurious_abort")
        self._flush_conflicts = stats.handle("csb.flush_conflicts")
        self._flushes = stats.handle("csb.flushes")

    # -- occupancy ---------------------------------------------------------

    @property
    def line_buffer_free(self) -> bool:
        """True when a line buffer is available for combining stores.

        The active buffer is free as long as fewer than ``num_line_buffers``
        flushed lines are still waiting for the bus.
        """
        return len(self._pending) < self.config.num_line_buffers

    @property
    def pending_bursts(self) -> int:
        return len(self._pending)

    # -- combining store -----------------------------------------------------

    def store(self, address: int, data: bytes, pid: int, core_id: int = 0) -> None:
        """Accept one combining store (caller must check
        :attr:`line_buffer_free` first — hardware would simply stall)."""
        if not self.line_buffer_free:
            raise SimulationError("combining store while line buffer busy")
        size = len(data)
        line = block_base(address, self.config.line_size)
        if address + size > line + self.config.line_size:
            raise SimulationError(
                f"combining store [{address:#x}, +{size}] crosses a line boundary"
            )
        if line != self._line_addr or pid != self._pid:
            # Conflict (or first store of a sequence): clear and restart.
            self._clear_data()
            self._line_addr = line
            self._pid = pid
            self._hit_counter = 0
            self._sequences_started.bump()
            if self.events is not None:
                from repro.observability.events import SequenceStarted

                self.events.publish(SequenceStarted(line, pid, core_id))
        offset = address - line
        self._data[offset : offset + size] = data
        self._valid |= ((1 << size) - 1) << offset
        self._hit_counter += 1
        self._stores.bump()

    # -- conditional flush ----------------------------------------------------

    def conditional_flush(
        self, address: int, pid: int, expected: int, core_id: int = 0
    ) -> FlushResult:
        """Attempt to commit the combined sequence atomically."""
        if not self.line_buffer_free:
            raise SimulationError("conditional flush while line buffer busy")
        line = block_base(address, self.config.line_size)
        matches = (
            self._hit_counter == expected
            and self._hit_counter > 0
            and pid == self._pid
            and (not self.config.check_address or line == self._line_addr)
        )
        if matches and self.faults is not None and self.faults.csb_spurious_abort():
            # Injected transient conflict: the flush fails even though the
            # sequence was clean.  Software's retry loop (reissue the stores
            # and swap again) recovers — exactly the path the paper's
            # conditional protocol is designed around.
            self._spurious_aborts.bump()
            if self.events is not None:
                from repro.observability.events import FaultInjected

                self.events.publish(FaultInjected("csb_spurious_abort", address=line))
            matches = False
        if not matches:
            if self.events is not None:
                from repro.observability.events import ConflictAbort

                self.events.publish(
                    ConflictAbort(line, pid, expected, self._hit_counter, core_id)
                )
            self._clear_data()
            self._line_addr = None
            self._pid = None
            self._hit_counter = 0
            self._flush_conflicts.bump()
            return FlushResult.CONFLICT
        assert self._line_addr is not None
        useful = self.valid_bytes
        if self.events is not None:
            from repro.observability.events import FlushCommitted

            self.events.publish(
                FlushCommitted(self._line_addr, useful, self._hit_counter, core_id)
            )
        if self.config.pad_to_full_line:
            burst = PendingBurst(
                self._line_addr,
                bytes(self._data),
                useful,
                sequence=-1,
                core_id=core_id,
            )
        else:
            # Relaxed variant: issue only the covering aligned power-of-two
            # prefix that contains all valid bytes (for buses with multiple
            # burst sizes).  Data outside valid bytes is still zero.
            span = self._covering_span()
            burst = PendingBurst(
                self._line_addr + span[0],
                bytes(self._data[span[0] : span[0] + span[1]]),
                useful,
                sequence=-1,
                core_id=core_id,
            )
        self._pending.append(burst)
        self._clear_data()
        self._line_addr = None
        self._pid = None
        self._hit_counter = 0
        self._flushes.bump()
        return FlushResult.SUCCESS

    def _covering_span(self) -> tuple:
        """Smallest aligned power-of-two (offset, size) covering valid bytes."""
        valid = self._valid
        first = (valid & -valid).bit_length() - 1
        last = valid.bit_length() - 1
        size = 1
        while True:
            offset = (first // size) * size
            if offset + size > last:
                return (offset, size)
            size *= 2
            if size >= self.config.line_size:
                return (0, self.config.line_size)

    # -- hand-off to the system interface --------------------------------------

    def peek_burst(self) -> Optional[PendingBurst]:
        return self._pending[0] if self._pending else None

    def pop_burst(self) -> PendingBurst:
        """Hand the oldest burst to the bus.  When that frees a line
        buffer, a combining store or flush stalled on any sharing core
        may go on: wake them all."""
        if not self._pending:
            raise SimulationError("no pending CSB burst")
        burst = self._pending.popleft()
        if len(self._pending) == self.config.num_line_buffers - 1:
            for buffer in self.sharers:
                buffer.wake_mark += 1
        return burst

    # -- architectural state hand-off (tiered execution) ------------------------

    def export_state(self) -> tuple:
        """Architectural snapshot for the fast-forward tier.

        Only legal at a quiescent point: a flushed-but-unsent burst is
        timing state the functional tier cannot carry.
        """
        if self._pending:
            raise SimulationError("CSB state export with bursts in flight")
        return (
            self._line_addr,
            self._pid,
            bytes(self._data),
            tuple(bool(self._valid >> i & 1) for i in range(len(self._data))),
            self._hit_counter,
        )

    def import_state(self, state: tuple) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        if self._pending:
            raise SimulationError("CSB state import with bursts in flight")
        line_addr, pid, data, valid, hit_counter = state
        if len(data) != self.config.line_size:
            raise SimulationError("CSB snapshot line size mismatch")
        self._line_addr = line_addr
        self._pid = pid
        self._data[:] = data
        self._valid = sum(1 << i for i, bit in enumerate(valid) if bit)
        self._hit_counter = hit_counter

    # -- introspection (tests, diagnostics) -------------------------------------

    @property
    def hit_counter(self) -> int:
        return self._hit_counter

    @property
    def line_addr(self) -> Optional[int]:
        return self._line_addr

    @property
    def pid(self) -> Optional[int]:
        return self._pid

    @property
    def valid_bytes(self) -> int:
        return bin(self._valid).count("1")

    def _clear_data(self) -> None:
        self._data[:] = bytes(len(self._data))
        self._valid = 0
