"""The event bus and the hook registry that installs it on a System.

Zero-overhead contract
----------------------

Instrumented components hold an ``events`` attribute that is ``None``
until an observer is attached; every emission site is guarded by a
single ``if self.events is not None`` check.  A run with no observers
therefore pays one attribute load + ``None`` comparison per
instrumentation point and allocates nothing.  CI's perf gate bounds the
observers-off speed end to end; the trace on/off identity tests pin results.

Clock
-----

:class:`EventBus` carries ``now``, the current CPU cycle, refreshed at
the top of every cycle by the uncached unit's tick (the first component
the system clocks).  ``publish`` stamps each event with it, so all
events share one timeline no matter which component emitted them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.observability.events import Event
from repro.observability.sinks import EventSink

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import System


class EventBus:
    """Fan-out of published events to every subscribed sink."""

    __slots__ = ("now", "_sinks")

    def __init__(self) -> None:
        self.now = 0
        self._sinks: List[EventSink] = []

    def subscribe(self, sink: EventSink) -> EventSink:
        self._sinks.append(sink)
        return sink

    def publish(self, event: Event) -> None:
        """Stamp ``event`` with the current CPU cycle and deliver it."""
        event.cycle = self.now
        for sink in self._sinks:
            sink.handle(event)

    @property
    def sinks(self) -> List[EventSink]:
        return list(self._sinks)


class Observability:
    """Hook registry owned by a :class:`~repro.sim.system.System`.

    Knows every instrumentation point in the machine; :meth:`attach`
    creates the event bus on first use and wires it into the core, the
    bus model, the uncached unit/buffer/CSB, the memory hierarchy, the
    scheduler, and every attached device.  Until then the registry holds
    no bus and the system is completely uninstrumented.
    """

    def __init__(self, system: "System") -> None:
        self._system = system
        self.bus: EventBus | None = None

    @property
    def enabled(self) -> bool:
        return self.bus is not None

    def attach(self, *sinks: EventSink) -> EventBus:
        """Subscribe ``sinks``, installing the event bus if needed."""
        if self.bus is None:
            self.bus = EventBus()
            self._install(self.bus)
        for sink in sinks:
            self.bus.subscribe(sink)
        return self.bus

    def wire_device(self, device) -> None:
        """Instrument a device (used for devices attached after the bus
        was installed; no-op while observability is off)."""
        if self.bus is not None:
            device.events = self.bus

    def _install(self, bus: EventBus) -> None:
        system = self._system
        for unit in system.units:
            unit.events = bus
        for buffer in system.buffers:
            buffer.events = bus
        system.csb.events = bus
        system.bus.events = bus
        for core in system.cores:
            core.events = bus
        system.hierarchy.events = bus
        system.scheduler.events = bus
        if system.refill_engine is not None:
            system.refill_engine.events = bus
        for dcache in system.dcaches:
            dcache.events = bus
        if system.writeback_engine is not None:
            system.writeback_engine.events = bus
        for device in system.devices:
            device.events = bus
