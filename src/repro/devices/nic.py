"""A Medusa/Atoll-style network interface (paper §2, §5).

Register map (offsets within the device region):

====================  ======================================================
``0x000 - 0x03F``     TX descriptor FIFO.  Any write in this window pushes
                      one descriptor; a full cache-line burst (e.g. a CSB
                      flush) pushes one *inline* packet whose payload is the
                      burst data.  An 8-byte write packs a (buffer offset,
                      length) pair, HP-Medusa style: a single store initiates
                      a transmit from on-board packet memory.
``0x040``             STATUS (read): free TX FIFO slots.
``0x048``             TX_COUNT (read): packets transmitted so far.
``0x080 - 0x0BF``     DESC window: the first doubleword of any write (single
                      beat or burst — zero padding from a CSB flush is
                      ignored) is a packed (offset, length) descriptor.
``0x0C0``             RX_STATUS (read): received packets pending.
``0x0C8``             RX_LEN (read): payload length of the head RX packet.
``0x0D0``             RX_CONSUME (write): pop the head RX packet.
``0x1000 - 0x1FFF``   On-board packet memory (PIO-assembled payloads).
``0x2000 - 0x2FFF``   RX window: the head RX packet's payload bytes.
====================  ======================================================

Transmission drains one descriptor every ``tx_cycles`` bus cycles, modeling
link serialization.  When an ``egress`` hook is attached (see
:class:`repro.devices.link.Link`), each packet is handed to it when its
serialization completes; received packets queue on the RX side and are
consumed with uncached loads plus an RX_CONSUME store — exactly the
polling receive the paper's user-level NI designs use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Deque, List, Optional
from collections import deque

from repro.common.errors import MemoryError_
from repro.devices.base import Device
from repro.memory.layout import Region

TX_FIFO_OFFSET = 0x000
TX_FIFO_SIZE = 0x40
STATUS_OFFSET = 0x40
TX_COUNT_OFFSET = 0x48
DESC_OFFSET = 0x80
DESC_SIZE = 0x40
RX_STATUS_OFFSET = 0xC0
RX_LEN_OFFSET = 0xC8
RX_CONSUME_OFFSET = 0xD0
PACKET_MEMORY_OFFSET = 0x1000
PACKET_MEMORY_SIZE = 0x1000
RX_WINDOW_OFFSET = 0x2000
RX_WINDOW_SIZE = 0x1000


@dataclass(frozen=True)
class Packet:
    """One transmitted packet."""

    payload: bytes
    inline: bool
    pushed_at: int
    sent_at: int


@dataclass
class _PendingDescriptor:
    payload: bytes
    inline: bool
    pushed_at: int
    #: Failed serialization attempts so far (fault injection only).
    attempts: int = 0
    #: Earliest bus cycle the next attempt may start (retry backoff).
    not_before: int = 0


class NetworkInterface(Device):
    """FIFO-descriptor NIC with on-board packet memory."""

    def __init__(
        self,
        region: Region,
        fifo_depth: int = 16,
        tx_cycles: int = 8,
        name: str = "nic",
    ) -> None:
        if region.size < PACKET_MEMORY_OFFSET * 2:
            raise MemoryError_("NIC region too small for its register map")
        super().__init__(region, name)
        self.fifo_depth = fifo_depth
        self.tx_cycles = tx_cycles
        self._fifo: Deque[_PendingDescriptor] = deque()
        self._packet_memory = bytearray(PACKET_MEMORY_SIZE)
        self._tx_busy_until = -1
        self._now = 0
        self.sent: List[Packet] = []
        self.dropped = 0
        #: Serialization retries forced by injected TX faults.
        self.tx_retries = 0
        #: Descriptors abandoned after exhausting ``max_retries`` attempts.
        self.tx_failed = 0
        #: Packets whose serialization is still in flight: (done_cycle, pkt).
        self._in_flight: List[tuple] = []
        #: Called with each Packet when its serialization completes.
        self.egress: Optional[Callable[[Packet], None]] = None
        # Receive side.
        self._rx_queue: Deque[bytes] = deque()
        self.rx_depth = fifo_depth
        self.rx_dropped = 0
        self.received_total = 0

    # -- bus interface -------------------------------------------------------

    def handle_write(self, offset: int, data: bytes) -> None:
        if offset < TX_FIFO_OFFSET + TX_FIFO_SIZE:
            self._push_descriptor(data)
            return
        if DESC_OFFSET <= offset < DESC_OFFSET + DESC_SIZE:
            # Descriptor window: only the first doubleword matters, so a
            # padded CSB burst pushes exactly one descriptor.
            self._push_descriptor(data[:8])
            return
        if offset == RX_CONSUME_OFFSET:
            if self._rx_queue:
                self._rx_queue.popleft()
            return
        if PACKET_MEMORY_OFFSET <= offset < PACKET_MEMORY_OFFSET + PACKET_MEMORY_SIZE:
            base = offset - PACKET_MEMORY_OFFSET
            self._packet_memory[base : base + len(data)] = data
            return
        raise MemoryError_(f"{self.name}: write to read-only register {offset:#x}")

    def handle_read(self, offset: int, size: int) -> bytes:
        if offset == STATUS_OFFSET:
            free = self.fifo_depth - len(self._fifo)
            return free.to_bytes(size, "big")
        if offset == TX_COUNT_OFFSET:
            return len(self.sent).to_bytes(size, "big")
        if offset == RX_STATUS_OFFSET:
            return len(self._rx_queue).to_bytes(size, "big")
        if offset == RX_LEN_OFFSET:
            length = len(self._rx_queue[0]) if self._rx_queue else 0
            return length.to_bytes(size, "big")
        if RX_WINDOW_OFFSET <= offset < RX_WINDOW_OFFSET + RX_WINDOW_SIZE:
            base = offset - RX_WINDOW_OFFSET
            if not self._rx_queue:
                return bytes(size)
            head = self._rx_queue[0]
            window = head + bytes(RX_WINDOW_SIZE - len(head))
            return window[base : base + size]
        if PACKET_MEMORY_OFFSET <= offset < PACKET_MEMORY_OFFSET + PACKET_MEMORY_SIZE:
            base = offset - PACKET_MEMORY_OFFSET
            return bytes(self._packet_memory[base : base + size])
        raise MemoryError_(f"{self.name}: read from {offset:#x}")

    def _push_descriptor(self, data: bytes) -> None:
        if len(self._fifo) >= self.fifo_depth:
            self.dropped += 1
            return
        if len(data) > 8:
            # Inline packet: the burst data is the payload (CSB-style send).
            self._fifo.append(_PendingDescriptor(bytes(data), True, self._now))
            return
        # Descriptor: (offset into packet memory, length) packed in one word.
        word = int.from_bytes(data, "big")
        length = word & 0xFFFF
        base = (word >> 16) & 0xFFFFFFFF
        payload = bytes(self._packet_memory[base : base + length])
        self._fifo.append(_PendingDescriptor(payload, False, self._now))

    # -- transmit engine ------------------------------------------------------

    def tick(self, bus_cycle: int) -> None:
        self._now = bus_cycle
        if (
            self._fifo
            and bus_cycle > self._tx_busy_until
            and bus_cycle >= self._fifo[0].not_before
        ):
            descriptor = self._fifo.popleft()
            self._tx_busy_until = bus_cycle + self.tx_cycles - 1
            if self.faults is not None and self.faults.nic_tx_fault():
                # The serialization attempt failed on the wire side.  The
                # wire time is spent either way; the descriptor goes back
                # to the head of the FIFO (packets stay ordered) with an
                # exponentially growing hold-off, until the retry budget
                # runs out and the packet is abandoned.
                self._tx_fault(descriptor, bus_cycle)
            else:
                packet = Packet(
                    payload=descriptor.payload,
                    inline=descriptor.inline,
                    pushed_at=descriptor.pushed_at,
                    sent_at=bus_cycle,
                )
                self.sent.append(packet)
                self._in_flight.append((bus_cycle + self.tx_cycles, packet))
        while self._in_flight and self._in_flight[0][0] <= bus_cycle:
            _, packet = self._in_flight.pop(0)
            if self.egress is not None:
                self.egress(packet)

    def next_event(self, bus_cycle: int) -> Optional[int]:
        """The next transmit start or serialization end (see :meth:`tick`);
        between them a tick only moves the device clock."""
        wake = None
        if self._fifo:
            wake = max(self._tx_busy_until + 1, self._fifo[0].not_before)
        if self._in_flight and (wake is None or self._in_flight[0][0] < wake):
            wake = self._in_flight[0][0]
        return None if wake is None else max(wake, bus_cycle)

    def _tx_fault(self, descriptor: _PendingDescriptor, bus_cycle: int) -> None:
        """Handle one injected serialization failure (see :meth:`tick`)."""
        assert self.faults is not None
        descriptor.attempts += 1
        if self.events is not None:
            from repro.observability.events import FaultInjected

            self.events.publish(
                FaultInjected("nic_tx_fault", address=self.region.base)
            )
        if descriptor.attempts >= self.faults.config.max_retries:
            self.tx_failed += 1
            return
        self.tx_retries += 1
        descriptor.not_before = bus_cycle + self.tx_cycles * (
            1 << descriptor.attempts
        )
        self._fifo.appendleft(descriptor)

    # -- receive side -----------------------------------------------------------

    def receive_packet(self, payload: bytes) -> None:
        """Deliver a packet arriving from the link into the RX queue.

        Payloads longer than the RX window (e.g. a large DMA-built packet)
        are truncated to it — the hardware has nowhere else to put them.
        """
        if len(self._rx_queue) >= self.rx_depth:
            self.rx_dropped += 1
            return
        self._rx_queue.append(bytes(payload[:RX_WINDOW_SIZE]))
        self.received_total += 1

    @property
    def rx_pending(self) -> int:
        return len(self._rx_queue)

    # -- introspection ----------------------------------------------------------

    @property
    def pending(self) -> int:
        return len(self._fifo)

    def deliver_dma_payload(self, payload: bytes, bus_cycle: int) -> None:
        """Entry point for the DMA engine: enqueue a DMA-built packet."""
        if len(self._fifo) >= self.fifo_depth:
            self.dropped += 1
            return
        self._fifo.append(_PendingDescriptor(payload, False, bus_cycle))

    def last_payload(self) -> Optional[bytes]:
        return self.sent[-1].payload if self.sent else None
