"""Device framework: a memory-mapped device occupies a region of uncached
(or uncached-combining) address space and terminates bus transactions."""

from __future__ import annotations

import abc
from typing import Optional

from repro.common.errors import MemoryError_
from repro.memory.layout import Region


class Device(abc.ABC):
    """Base class for bus targets with register decode helpers."""

    #: True when :meth:`tick` integrates any gap exactly: a tick at bus
    #: cycle ``a`` and then one at ``b`` leave what ticking every bus cycle
    #: from ``a`` to ``b`` would, as long as nothing but those ticks changes
    #: the device in between.  Only a bus transaction reaching it may.  The
    #: System's clock driver then ticks it only on its first tick, at the
    #: bus cycle before a transaction that reaches it (directly or through
    #: a :class:`DeviceAlias`) completes, and when
    #: :meth:`~repro.sim.system.System.advance` returns.
    integrates_gaps = False

    def __init__(self, region: Region, name: str = "") -> None:
        self.region = region
        self.name = name or type(self).__name__
        #: Observability event bus; None (the default) means uninstrumented.
        self.events = None
        #: Fault-injection plan; None (the default) means fault-free.
        self.faults = None
        self.writes = 0
        self.reads = 0
        self.bytes_written = 0
        #: Injected ack-timeout bookkeeping (bus-side device_timeout faults
        #: targeting this device's region).
        self.ack_delays = 0
        self.ack_delay_cycles = 0

    def note_ack_delay(self, cycles: int) -> None:
        """Record an injected late-acknowledgment affecting this device."""
        self.ack_delays += 1
        self.ack_delay_cycles += cycles

    def bus_write(self, address: int, data: bytes) -> None:
        self._check(address, len(data))
        self.writes += 1
        self.bytes_written += len(data)
        if self.events is not None:
            from repro.observability.events import DeviceWrite

            self.events.publish(DeviceWrite(self.name, address, len(data)))
        self.handle_write(address - self.region.base, data)

    def bus_read(self, address: int, size: int) -> bytes:
        self._check(address, size)
        self.reads += 1
        if self.events is not None:
            from repro.observability.events import DeviceRead

            self.events.publish(DeviceRead(self.name, address, size))
        return self.handle_read(address - self.region.base, size)

    def tick(self, bus_cycle: int) -> None:
        """Optional per-bus-cycle device activity (DMA progress etc.)."""

    def next_event(self, bus_cycle: int) -> Optional[int]:
        """Earliest bus cycle, from ``bus_cycle`` on, at which :meth:`tick`
        must run (None: never on its own).

        The System's clock jump skips bus cycles before it, then ticks the
        device at the first and the last skipped bus cycle.  A device that
        does nothing per cycle never bounds the jump, nor does one that
        :attr:`integrates_gaps`; one that overrides :meth:`tick` is ticked
        every bus cycle the clock driver does not jump, and bounds the jump
        unless it reports its next timer.
        """
        if type(self).tick is Device.tick:
            return None
        return bus_cycle

    @abc.abstractmethod
    def handle_write(self, offset: int, data: bytes) -> None:
        """Process a write at ``offset`` within the device's region."""

    @abc.abstractmethod
    def handle_read(self, offset: int, size: int) -> bytes:
        """Produce ``size`` bytes for a read at ``offset``."""

    def _check(self, address: int, size: int) -> None:
        if not self.region.contains(address) or address + size > self.region.end:
            raise MemoryError_(
                f"{self.name}: access [{address:#x}, +{size}] outside region"
            )


class DeviceAlias(Device):
    """A second mapping of an existing device at another address range.

    Real systems map one device into several address spaces with different
    attributes — e.g. a NIC's TX FIFO window in uncached-*combining* space
    (so CSB bursts land in it) while its control/status registers stay in
    plain uncached space for ordinary loads and stores.  An alias forwards
    accesses at matching offsets to the primary device; only the primary
    ticks.
    """

    def __init__(self, region: Region, target: Device, name: str = "") -> None:
        if region.size > target.region.size:
            raise MemoryError_(
                f"alias region larger than {target.name}'s register map"
            )
        super().__init__(region, name or f"{target.name}-alias")
        self.target = target

    def handle_write(self, offset: int, data: bytes) -> None:
        self.target.handle_write(offset, data)
        self.target.writes += 1
        self.target.bytes_written += len(data)

    def handle_read(self, offset: int, size: int) -> bytes:
        self.target.reads += 1
        return self.target.handle_read(offset, size)
