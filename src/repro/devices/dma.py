"""A simple descriptor-based DMA engine.

Models the send-side DMA alternative to programmed I/O (paper §2, §5): the
driver programs source address and length, then rings a doorbell; the engine
is busy for a fixed setup time plus a transfer time proportional to the
message length, then hands the payload to the NIC.  The setup cost is what
makes DMA lose to PIO for short messages — the crossover the paper argues
the CSB moves toward larger messages.

Register map (offsets): ``0x00`` SRC, ``0x08`` LEN, ``0x10`` DOORBELL
(write triggers), ``0x18`` STATUS (read: 0 = busy, 1 = idle/done).

The engine reads source data functionally from main memory at completion.
Its bus occupancy is modeled as a fixed per-line overhead folded into
``cycles_per_line`` rather than by arbitrating the CPU's bus — the paper's
crossover argument depends on the setup/teardown constant, not on DMA/CPU
bus interference.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.errors import MemoryError_
from repro.devices.base import Device
from repro.devices.nic import NetworkInterface
from repro.memory.backing import BackingStore
from repro.memory.layout import Region

SRC_OFFSET = 0x00
LEN_OFFSET = 0x08
DOORBELL_OFFSET = 0x10
STATUS_OFFSET = 0x18


class DmaEngine(Device):
    """Send-side DMA engine feeding a :class:`NetworkInterface`."""

    def __init__(
        self,
        region: Region,
        memory: BackingStore,
        nic: Optional[NetworkInterface] = None,
        setup_cycles: int = 40,
        cycles_per_line: int = 10,
        line_size: int = 64,
        name: str = "dma",
    ) -> None:
        super().__init__(region, name)
        self.memory = memory
        self.nic = nic
        self.setup_cycles = setup_cycles
        self.cycles_per_line = cycles_per_line
        self.line_size = line_size
        self._src = 0
        self._len = 0
        self._busy_until = -1
        self._active: Optional[Tuple[int, int]] = None
        self._now = 0
        self._attempts = 0
        self.transfers: List[Tuple[int, int, int]] = []  # (src, len, done_cycle)
        #: Re-runs forced by injected completion faults.
        self.retries = 0
        #: Transfers abandoned after exhausting ``max_retries`` attempts.
        self.failed = 0

    def handle_write(self, offset: int, data: bytes) -> None:
        value = int.from_bytes(data, "big")
        if offset == SRC_OFFSET:
            self._src = value
        elif offset == LEN_OFFSET:
            self._len = value
        elif offset == DOORBELL_OFFSET:
            self._ring(value)
        else:
            raise MemoryError_(f"{self.name}: write to {offset:#x}")

    def handle_read(self, offset: int, size: int) -> bytes:
        if offset == STATUS_OFFSET:
            idle = 0 if self.busy else 1
            return idle.to_bytes(size, "big")
        if offset == SRC_OFFSET:
            return self._src.to_bytes(size, "big")
        if offset == LEN_OFFSET:
            return self._len.to_bytes(size, "big")
        raise MemoryError_(f"{self.name}: read from {offset:#x}")

    def _ring(self, packed: int) -> None:
        """Doorbell.  An Atoll-style packed descriptor (address in the high
        bits, length in the low 16) may be written directly; zero means
        "use the SRC/LEN registers"."""
        if self.busy:
            raise MemoryError_(f"{self.name}: doorbell while busy")
        if packed:
            src = packed >> 16
            length = packed & 0xFFFF
        else:
            src, length = self._src, self._len
        if length <= 0:
            raise MemoryError_(f"{self.name}: zero-length DMA")
        lines = (length + self.line_size - 1) // self.line_size
        self._busy_until = self._now + self.setup_cycles + lines * self.cycles_per_line
        self._active = (src, length)
        self._attempts = 0

    @property
    def busy(self) -> bool:
        return self._active is not None

    def tick(self, bus_cycle: int) -> None:
        self._now = bus_cycle
        if self._active is not None and bus_cycle >= self._busy_until:
            src, length = self._active
            if self.faults is not None and self.faults.dma_fault():
                # The transfer failed at completion; the engine re-runs it
                # from scratch after an exponentially growing hold-off,
                # giving up once the retry budget is exhausted.
                self._dma_fault(src, length, bus_cycle)
                return
            payload = self.memory.read_bytes(src, length)
            if self.nic is not None:
                self.nic.deliver_dma_payload(payload, bus_cycle)
            self.transfers.append((src, length, bus_cycle))
            self._active = None

    def next_event(self, bus_cycle: int) -> Optional[int]:
        """The active transfer's completion (None while idle); before it a
        tick only moves the device clock."""
        if self._active is None:
            return None
        return max(self._busy_until, bus_cycle)

    def _dma_fault(self, src: int, length: int, bus_cycle: int) -> None:
        """Handle one injected completion failure (see :meth:`tick`)."""
        assert self.faults is not None
        self._attempts += 1
        if self.events is not None:
            from repro.observability.events import FaultInjected

            self.events.publish(FaultInjected("dma_fault", address=src))
        if self._attempts >= self.faults.config.max_retries:
            self.failed += 1
            self._active = None
            return
        self.retries += 1
        lines = (length + self.line_size - 1) // self.line_size
        self._busy_until = (
            bus_cycle
            + (self.setup_cycles << self._attempts)
            + lines * self.cycles_per_line
        )

    def completion_cycle(self) -> Optional[int]:
        """Bus cycle the most recent transfer completed (None if none)."""
        return self.transfers[-1][2] if self.transfers else None
