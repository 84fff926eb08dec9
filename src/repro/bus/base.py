"""Shared bus machinery: issue/complete scheduling, flow control, targets.

Timing contract (all in bus cycles):

* A transaction is *accepted* at its address cycle ``start``.
* The concrete bus computes ``end``, the transaction's last data cycle.
* The next transaction's address cycle must satisfy both
  ``next_start >= end + 1 + turnaround`` (the bus path must be free, plus
  any mandatory idle cycle) and ``next_start >= start + min_addr_delay``
  (acknowledgment flow control under strong ordering: the next uncached
  transaction may not issue until the previous one was positively
  acknowledged, paper §4.3.1).

Because timing is deterministic once a transaction is accepted, completion
is scheduled at accept time and callbacks fire from :meth:`SystemBus.tick`.
"""

from __future__ import annotations

import abc
import heapq
from typing import Dict, List, Optional, Protocol, Tuple

from repro.common.config import BusConfig
from repro.common.errors import SimulationError
from repro.common.stats import StatsCollector, TransactionRecord
from repro.bus.transaction import BusTransaction
from repro.memory.backing import BackingStore
from repro.memory.layout import Region


class BusTarget(Protocol):
    """Anything that can terminate a bus transaction (a device)."""

    def bus_write(self, address: int, data: bytes) -> None: ...

    def bus_read(self, address: int, size: int) -> bytes: ...


class TargetRegistry:
    """Routes completed transactions to devices by address range.

    Addresses not claimed by any device fall through to the backing store,
    which models plain bufferable device memory (e.g. a frame buffer or a
    NI's exported packet memory).
    """

    def __init__(self, backing: BackingStore) -> None:
        self._backing = backing
        self._targets: List[Tuple[Region, BusTarget]] = []

    def register(self, region: Region, device: BusTarget) -> None:
        for existing, _ in self._targets:
            if region.overlaps(existing):
                raise SimulationError(
                    f"device region {region.name!r} overlaps {existing.name!r}"
                )
        self._targets.append((region, device))

    def write(self, address: int, data: bytes) -> None:
        device = self._device_at(address)
        if device is not None:
            device.bus_write(address, data)
        else:
            self._backing.write_bytes(address, data)

    def read(self, address: int, size: int) -> bytes:
        device = self._device_at(address)
        if device is not None:
            return device.bus_read(address, size)
        return self._backing.read_bytes(address, size)

    def device_at(self, address: int) -> Optional[BusTarget]:
        """The device claiming ``address`` (None: plain backing memory)."""
        return self._device_at(address)

    def _device_at(self, address: int) -> Optional[BusTarget]:
        for region, device in self._targets:
            if region.contains(address):
                return device
        return None


class SystemBus(abc.ABC):
    """Base class for the multiplexed and split bus models."""

    def __init__(
        self,
        config: BusConfig,
        stats: StatsCollector,
        targets: TargetRegistry,
        read_latency: int = 3,
    ) -> None:
        if read_latency < 0:
            raise SimulationError("read_latency must be >= 0")
        self.config = config
        self.stats = stats
        self.targets = targets
        self.read_latency = read_latency
        #: Observability event bus; None (the default) means uninstrumented.
        self.events = None
        #: Fault-injection plan; None (the default) means fault-free, and
        #: every hook below guards on it so the clean path pays only the
        #: ``is not None`` check (same discipline as ``events``).
        self.faults = None
        self._next_start_allowed = 0
        self._busy_until = -1
        # Min-heap of (end_cycle, sequence, transaction) pending completion.
        self._pending: List[Tuple[int, int, BusTransaction]] = []
        #: Transactions accepted so far.  A sleeping core watches it: an
        #: acceptance is the only way a bus cycle changes what the core
        #: polls (uncached buffer, CSB line buffers, barrier_clear).
        self.accepted = 0

    # -- concrete buses implement the cost model -----------------------------

    @abc.abstractmethod
    def transaction_end(self, txn: BusTransaction, start: int) -> int:
        """Bus cycle of the transaction's last data beat."""

    @abc.abstractmethod
    def cycle_breakdown(self, txn: BusTransaction) -> Tuple[int, int, int]:
        """``(address, wait, data)`` cycles of ``txn`` on this bus.

        The three always sum to the transaction's occupancy
        ``end - start + 1`` — the bus-cycle accounting in
        :mod:`repro.observability.report` relies on it.
        """

    # -- issue / progress -----------------------------------------------------

    def can_issue(self, bus_cycle: int) -> bool:
        return bus_cycle >= self._next_start_allowed

    def try_issue(self, txn: BusTransaction, bus_cycle: int) -> bool:
        """Accept ``txn`` at ``bus_cycle`` if flow control allows.

        Returns False (and changes nothing) when the bus cannot take the
        transaction this cycle.
        """
        if txn.size > self.config.max_burst_bytes:
            raise SimulationError(
                f"transaction size {txn.size} exceeds bus max burst "
                f"{self.config.max_burst_bytes}"
            )
        if not self.can_issue(bus_cycle):
            return False
        if self.faults is not None:
            # A NACKed address cycle: the target refused the transaction,
            # the initiator's existing retry machinery re-presents it on a
            # later bus cycle.  Nothing else about the bus state changes.
            if self.faults.bus_nack():
                self.stats.bump("faults.bus_nack")
                self._publish_fault("bus_nack", txn.address)
                return False
            # A slow-target stall stretches this transaction's wait phase;
            # the concrete bus models fold ``fault_stall`` into both the
            # end-cycle cost and the cycle breakdown.
            txn.fault_stall = self.faults.bus_stall()
            if txn.fault_stall:
                self.stats.bump("faults.bus_stall")
                self._publish_fault(
                    "bus_stall", txn.address, cycles=txn.fault_stall
                )
        start = bus_cycle
        end = self.transaction_end(txn, start)
        txn.start_cycle = start
        txn.end_cycle = end
        self._busy_until = end
        self._next_start_allowed = max(
            end + 1 + self.config.turnaround,
            start + self.config.min_addr_delay,
        )
        if self.faults is not None:
            device = self.targets.device_at(txn.address)
            if device is not None:
                # A late positive acknowledgment from the target device:
                # under strong ordering the next transaction may not issue
                # until the ack arrives, so the flow-control window simply
                # stretches.
                delay = self.faults.device_timeout()
                if delay:
                    self._next_start_allowed += delay
                    self.stats.bump("faults.device_timeout")
                    note = getattr(device, "note_ack_delay", None)
                    if note is not None:
                        note(delay)
                    self._publish_fault(
                        "device_timeout", txn.address, cycles=delay
                    )
        heapq.heappush(self._pending, (end, self.accepted, txn))
        self.accepted += 1
        self.stats.bump("bus.transactions")
        self.stats.bump("bus.bytes_wire", txn.size)
        if txn.is_burst:
            self.stats.bump("bus.bursts")
        self.stats.record_transaction(
            TransactionRecord(
                start_cycle=start,
                end_cycle=end,
                address=txn.address,
                size=txn.size,
                useful_bytes=txn.useful_bytes or 0,
                kind=txn.kind,
                burst=txn.is_burst,
                core_id=txn.core_id,
            )
        )
        if self.events is not None:
            self._publish_accept(txn, start, end)
        return True

    def _publish_fault(self, site: str, address: int, cycles: int = 0) -> None:
        """Publish a FaultInjected event when instrumentation is on."""
        if self.events is None:
            return
        from repro.observability.events import FaultInjected

        self.events.publish(FaultInjected(site, address=address, cycles=cycles))

    def _publish_accept(self, txn: BusTransaction, start: int, end: int) -> None:
        """Emit the observability view of an accepted transaction (kept
        out of try_issue so the traced path costs the uninstrumented run
        nothing but the ``events is None`` check)."""
        from repro.observability.events import (
            BusAddressCycle,
            BusDataCycle,
            TransactionAccepted,
            Turnaround,
        )

        addr_cycles, wait_cycles, data_cycles = self.cycle_breakdown(txn)
        publish = self.events.publish
        publish(
            TransactionAccepted(
                bus_cycle=start,
                end_cycle=end,
                address=txn.address,
                size=txn.size,
                useful_bytes=txn.useful_bytes or 0,
                txn_kind=txn.kind,
                burst=txn.is_burst,
                addr_cycles=addr_cycles,
                wait_cycles=wait_cycles,
                data_cycles=data_cycles,
                turnaround_after=self.config.turnaround,
                core_id=txn.core_id,
            )
        )
        for offset in range(addr_cycles):
            publish(BusAddressCycle(start + offset, txn.address, txn.kind))
        for beat in range(data_cycles):
            publish(
                BusDataCycle(
                    end - data_cycles + 1 + beat, txn.address, txn.kind, beat
                )
            )
        if self.config.turnaround:
            publish(Turnaround(end + 1, self.config.turnaround))

    def tick(self, bus_cycle: int) -> None:
        """Complete every transaction whose last data beat has passed."""
        while self._pending and self._pending[0][0] <= bus_cycle:
            _, _, txn = heapq.heappop(self._pending)
            self._complete(txn)

    def drain_complete(self) -> bool:
        """True when no transaction is in flight."""
        return not self._pending

    def in_flight(self) -> List[Dict[str, object]]:
        """Accepted, not yet completed transactions in completion order
        (deadlock diagnostics)."""
        return [
            {
                "kind": txn.kind,
                "address": txn.address,
                "size": txn.size,
                "core": txn.core_id,
                "end": end,
            }
            for end, _, txn in sorted(self._pending)
        ]

    @property
    def next_start_allowed(self) -> int:
        return self._next_start_allowed

    @property
    def next_completion(self) -> Optional[int]:
        """Bus cycle of the earliest in-flight transaction's last data beat
        (None when idle): :meth:`tick` completes nothing before it."""
        return self._pending[0][0] if self._pending else None

    def _complete(self, txn: BusTransaction) -> None:
        if txn.is_write:
            assert txn.data is not None
            self.targets.write(txn.address, txn.data)
        else:
            txn.result_data = self.targets.read(txn.address, txn.size)
        if txn.on_complete is not None:
            assert txn.end_cycle is not None
            txn.on_complete(txn.end_cycle)
