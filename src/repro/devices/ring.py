"""A descriptor ring: the device-side queue trace replay writes into.

Each bus write landing in the ring's register window enqueues one
descriptor (the doorbell model: what matters to the device is that a
write arrived, not which slot it hit).  The device drains one descriptor
every ``service_cycles`` bus cycles while any are pending; a write
arriving with the ring full is counted as a drop and otherwise ignored
(real NICs do exactly this — the host is expected to respect occupancy).

The ring keeps an exact time integral of its occupancy, so
``mean_occupancy`` over any run is available without per-cycle sampling
— that is the device-imbalance experiment's metric: under LBICA-style
skew the hot device's ring sits deep while the cold ones idle.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.common.errors import ConfigError
from repro.devices.base import Device
from repro.memory.layout import Region

#: handle_read register offsets (doublewords).
REG_PENDING = 0x00
REG_ENQUEUED = 0x08
REG_DRAINED = 0x10
REG_DROPS = 0x18


class DescriptorRing(Device):
    """A fixed-capacity descriptor queue drained at a constant service rate."""

    integrates_gaps = True

    def __init__(
        self,
        region: Region,
        capacity: int = 64,
        service_cycles: int = 16,
        name: str = "",
    ) -> None:
        if capacity < 1:
            raise ConfigError("ring capacity must be >= 1")
        if service_cycles < 1:
            raise ConfigError("ring service_cycles must be >= 1")
        super().__init__(region, name or "ring")
        self.capacity = capacity
        self.service_cycles = service_cycles
        self.pending = 0
        self.enqueued = 0
        self.drained = 0
        self.drops = 0
        self.high_water = 0
        self.ticks = 0
        #: Sum over bus cycles of the occupancy at each cycle's start.
        self.occupancy_integral = 0
        self._last_tick = None
        self._service_credit = 0

    def handle_write(self, offset: int, data: bytes) -> None:
        if self.pending >= self.capacity:
            self.drops += 1
            return
        self.pending += 1
        self.enqueued += 1
        if self.pending > self.high_water:
            self.high_water = self.pending

    def handle_read(self, offset: int, size: int) -> bytes:
        values = {
            REG_PENDING: self.pending,
            REG_ENQUEUED: self.enqueued,
            REG_DRAINED: self.drained,
            REG_DROPS: self.drops,
        }
        value = values.get(offset, 0)
        return struct.pack("<Q", value & (2**64 - 1))[:size]

    def tick(self, bus_cycle: int) -> None:
        """Advance device time to ``bus_cycle``.

        Elapsed gaps are handled here: occupancy is integrated over the
        whole gap and service credit accrues for it, so the System's clock
        driver ticks the ring only when it must (:attr:`integrates_gaps`).
        Credit is cleared whenever the ring is empty — an idle device does
        not bank servicing for future descriptors.
        """
        if self._last_tick is None:
            elapsed = 1
        else:
            elapsed = bus_cycle - self._last_tick
            if elapsed <= 0:
                return
        self._last_tick = bus_cycle
        self.ticks += elapsed
        # Piecewise-exact integration over the gap: between drains the
        # occupancy is constant, and a drain lands exactly when service
        # credit reaches a full period.
        remaining = elapsed
        while self.pending and remaining > 0:
            until_drain = self.service_cycles - self._service_credit
            if remaining < until_drain:
                self.occupancy_integral += self.pending * remaining
                self._service_credit += remaining
                return
            self.occupancy_integral += self.pending * until_drain
            remaining -= until_drain
            self._service_credit = 0
            self.pending -= 1
            self.drained += 1
        if not self.pending:
            self._service_credit = 0

    def next_event(self, bus_cycle: int) -> Optional[int]:
        """Never: :meth:`tick` integrates any gap exactly, so a tick at a
        span's last bus cycle equals a tick at every one."""
        return None

    def mean_occupancy(self) -> float:
        """Time-averaged ring depth over all device ticks so far."""
        if not self.ticks:
            return 0.0
        return self.occupancy_integral / self.ticks
