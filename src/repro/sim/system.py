"""The simulated system: N cores (``SystemConfig.num_cores``, default 1),
each with its own uncached buffer + uncached unit, sharing one conditional
store buffer, one arbitrated system bus, a two-level cache hierarchy, main
memory, and any number of memory-mapped devices — all advanced by a single
CPU clock, with the bus ticking once every ``cpu_ratio`` CPU cycles.

Per-cycle clocking order (``step``): every uncached unit's CPU-side tick,
then — on a bus-cycle boundary — one :class:`~repro.bus.arbiter.BusArbiter`
grant (which also advances the bus and completes transactions) and the
device ticks, then every core, then the scheduler.  With ``num_cores=1``
this is exactly the pre-SMP ordering, so single-core runs are
cycle-identical to the historical single-initiator system.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError, DeadlockError
from repro.common.stats import StatsCollector
from repro.bus.arbiter import BusArbiter
from repro.bus.base import TargetRegistry
from repro.bus.factory import make_bus
from repro.cpu.context import ProcessContext
from repro.cpu.core import Core
from repro.cpu.trace import PipelineTrace
from repro.devices.base import Device
from repro.isa.program import Program
from repro.memory.backing import BackingStore
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.layout import AddressSpace, default_address_space
from repro.memory.tlb import AttributeTLB
from repro.observability.hooks import EventBus, Observability
from repro.observability.sinks import EventSink
from repro.sim.scheduler import Scheduler
from repro.uncached.buffer import UncachedBuffer
from repro.uncached.csb import ConditionalStoreBuffer
from repro.uncached.unit import UncachedUnit


class _Timed(Protocol):
    """A component the clock jump asks for its next event (see
    :meth:`System._next_event`)."""

    def next_event(self, cycle: int, /) -> Optional[int]: ...


class System:
    """A complete simulated machine.

    Typical use::

        system = System(SystemConfig())
        system.add_process(assemble(KERNEL_SOURCE)).set_register("o1", DST)
        stats = system.run()
        print(stats.uncached_store_window.bytes_per_cycle)
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        space: Optional[AddressSpace] = None,
    ) -> None:
        self.config = config or SystemConfig()
        self.stats = StatsCollector()
        self.backing = BackingStore()
        self.space = space or default_address_space()
        self.tlb = AttributeTLB(self.space)
        self.targets = TargetRegistry(self.backing)
        self.bus = make_bus(
            self.config.bus, self.stats, self.targets, self.config.bus_read_latency
        )
        self.csb = ConditionalStoreBuffer(self.config.csb, self.stats)
        num_cores = self.config.num_cores
        self.buffers: List[UncachedBuffer] = [
            UncachedBuffer(self.config.uncached, self.bus, self.stats, core_id=i)
            for i in range(num_cores)
        ]
        self.units: List[UncachedUnit] = [
            UncachedUnit(
                self.buffers[i],
                self.csb,
                self.bus,
                self.tlb,
                self.stats,
                self.config.bus.cpu_ratio,
                self.config.csb,
                core_id=i,
            )
            for i in range(num_cores)
        ]
        self.hierarchy = MemoryHierarchy(self.config.memory, self.backing)
        self.refill_engine = None
        if self.config.memory.refills_use_bus:
            from repro.memory.refill import RefillEngine

            self.refill_engine = RefillEngine(
                self.bus, self.config.memory.line_size, self.stats
            )
            self.hierarchy.refill_hook = self.refill_engine.request
        # The non-blocking D-cache (MemoryConfig): one per core, sharing
        # one refill engine (arbiter class 0) and one write-back engine
        # (class 2) when cache traffic occupies the bus.  Disabled — the
        # default — the list is empty and every cached access takes the
        # historical blocking-hierarchy path, byte-identically.
        self.dcaches: List = []
        self.writeback_engine = None
        if self.config.mem.enabled:
            from repro.memory.dcache import DataCache, wire_peers

            self.dcaches = [
                DataCache(self.config.mem, name=f"dcache{i}")
                for i in range(num_cores)
            ]
            wire_peers(self.dcaches)
            if self.config.mem.bus_traffic:
                from repro.memory.refill import RefillEngine, WritebackEngine

                if self.refill_engine is None:
                    self.refill_engine = RefillEngine(
                        self.bus, self.config.mem.line_size, self.stats
                    )
                self.writeback_engine = WritebackEngine(
                    self.bus, self.config.mem.line_size, self.stats, self.backing
                )
                for dcache in self.dcaches:
                    dcache.refill_hook = self.refill_engine.request
                    dcache.writeback_hook = self.writeback_engine.request
            for unit in self.units:
                unit.csb_invalidate = self._csb_invalidate
        self.arbiter = BusArbiter(self.bus, self.config.arbitration)
        if self.refill_engine is not None:
            # Memory traffic stalls whole cores, so refills outrank
            # programmed I/O — the same choice the pre-SMP path hard-coded.
            self.arbiter.add_initiator(self.refill_engine, priority=0, name="refill")
        for i, unit in enumerate(self.units):
            self.arbiter.add_initiator(unit, priority=1, name=f"core{i}")
        if self.writeback_engine is not None:
            # Write-backs are never on a core's critical path (the victim's
            # bytes were snapshotted at eviction), so they yield to both
            # refills and programmed I/O.
            self.arbiter.add_initiator(
                self.writeback_engine, priority=2, name="writeback"
            )
        self.trace = PipelineTrace() if self.config.trace else None
        self.cores: List[Core] = [
            Core(
                self.config.core,
                self.hierarchy,
                self.tlb,
                self.units[i],
                self.stats,
                trace=self.trace,
                core_id=i,
                dcache=self.dcaches[i] if self.dcaches else None,
            )
            for i in range(num_cores)
        ]
        for core in self.cores:
            core.machine_cores = self.cores
        # Single-core aliases: core 0's hardware, the whole machine when
        # ``num_cores=1`` (which the historical API and tests rely on).
        self.buffer = self.buffers[0]
        self.unit = self.units[0]
        self.core = self.cores[0]
        self.scheduler = Scheduler(
            self.cores, self.config.quantum, self.config.switch_penalty
        )
        self.devices: List[Device] = []
        # What the clock driver ticks of them (see advance): the devices
        # that override ``tick``, split by whether it integrates gaps.
        self._ticked_devices: List[Device] = []
        self._gap_devices: List[Device] = []
        # Fault injection (repro.faults): a plan exists only when at least
        # one rate is nonzero, so fault-free runs keep every hook on its
        # ``faults is None`` fast path and stay byte-identical to a build
        # without the subsystem.
        self.faults = None
        if self.config.faults.enabled:
            from repro.faults.plan import FaultPlan

            self.faults = FaultPlan(self.config.faults)
            self.bus.faults = self.faults
            self.csb.faults = self.faults
            if self.refill_engine is not None:
                self.refill_engine.faults = self.faults
        self.observability = Observability(self)
        self.cycle = 0
        #: Host-side count of cycles the clock driver jumped instead of
        #: ticking (diagnostics; not a simulated statistic).
        self.jumped_cycles = 0
        self._next_pid = 1
        # Tiered execution: the sampling controller's report, attached by
        # repro.sim.sampling.run_sampled after a sampled run.
        self.sampling_report = None

    # -- construction -----------------------------------------------------------

    def add_process(
        self,
        program: Program,
        pid: Optional[int] = None,
        name: str = "",
        core_id: Optional[int] = None,
    ) -> ProcessContext:
        """Create a process running ``program`` and add it to a run queue.

        Without an explicit ``core_id`` processes are distributed over the
        cores round-robin in add order (all on core 0 for ``num_cores=1``).
        """
        if pid is None:
            pid = self._next_pid
            self._next_pid += 1
        context = ProcessContext(pid, program, name)
        self.scheduler.add(context, core_id=core_id)
        return context

    def attach_device(self, device: Device) -> Device:
        """Register a device: its region must lie within uncached space."""
        region = device.region
        covering = self.space.region_at(region.base)
        if covering is None or region.end > covering.end:
            raise ConfigError(
                f"device {device.name!r} region not inside a mapped region"
            )
        if not covering.attr.is_uncached:
            raise ConfigError(f"device {device.name!r} must live in uncached space")
        self.targets.register(region, device)
        self.devices.append(device)
        if device.integrates_gaps:
            self._gap_devices.append(device)
        elif type(device).tick is not Device.tick:
            self._ticked_devices.append(device)
        device.faults = self.faults
        self.observability.wire_device(device)
        return device

    def attach_observer(self, sink: EventSink) -> EventSink:
        """Subscribe an event sink, enabling observability on first use.

        Returns ``sink`` so attachment reads naturally::

            ring = system.attach_observer(RingBufferSink())
        """
        self.observability.attach(sink)
        return sink

    @property
    def events(self) -> Optional[EventBus]:
        """The installed event bus (None while observability is off)."""
        return self.observability.bus

    # -- clocking ---------------------------------------------------------------

    def step(self) -> None:
        """Advance one CPU cycle."""
        now = self.cycle
        for unit in self.units:
            unit.tick_cpu(now)
        if now % self.config.bus.cpu_ratio == 0:
            bus_cycle = now // self.config.bus.cpu_ratio
            self.arbiter.tick_bus(bus_cycle)
            for device in self.devices:
                device.tick(bus_cycle)
        for core in self.cores:
            core.tick(now)
        self.scheduler.tick(now)
        for core in self.cores:
            core.settle()
        self.cycle += 1

    def advance(
        self,
        until: Optional[int] = None,
        feed: Optional[Callable[[System], bool]] = None,
        max_cycles: int = 5_000_000,
    ) -> int:
        """The clock driver: tick until the machine is finished or the clock
        reaches ``until``, and return the number of cycles advanced.

        Finished means every process has halted and all I/O has drained.
        With a ``feed``, ``feed(self)`` is asked for more work first, each
        time the machine is finished (also before the first cycle): it
        returns True after adding processes, or False when it has none
        left.  While the machine is drained a feed may also move
        ``self.cycle`` forward over an idle gap; a feed's jump is not
        counted as advanced.  Raises :class:`DeadlockError` when the clock
        reaches ``max_cycles`` with work left, or when a feed returns True
        without adding any.

        Every run of the simulator goes through this loop.  It leaves the
        machine cycle-for-cycle as calling :meth:`step`, the readable
        reference that ticks everything every cycle, would
        (tests/sim/test_clock_driver.py pins the equivalence), but it
        ticks only what is due:

        * every core, each cycle (a sleeping core's tick only moves its
          clock; :meth:`~repro.cpu.core.Core.settle` pays for the sleep);
        * a unit's ``tick_cpu`` only once a flush result is due
          (``next_due``); before that the driver just moves the unit's
          clock and the event clock, which the cores and the drain check
          read;
        * a run queue only while a quantum is set or its core has no live
          context (and then only when it has something to act on,
          :meth:`~repro.sim.scheduler.CoreScheduler.waits`): without a
          quantum no switch or drain is ever pending;
        * on bus cycles the arbiter and every device that overrides
          ``tick``, except a device that :attr:`~repro.devices.base
          .Device.integrates_gaps`: that one is ticked at its first bus
          cycle here, at the bus cycle before a transaction completes
          (when one may reach it) and at the last bus cycle when the
          driver returns.

        The device lists are read by reference, so a device a feed
        attaches is ticked.  While every core is asleep or has no live
        context, the loop jumps the clock to the earliest cycle any
        component could act (:meth:`_next_event`) instead of ticking
        through the wait; the skipped cycles count as advanced and leave
        every simulated result as ticking them would (:meth:`_skip`).
        """
        scheduler = self.scheduler
        quiescent = self._quiescent
        cores = self.cores
        units = self.units
        queues = scheduler.queues
        core_ticks = [core.tick for core in cores]
        arbiter_tick = self.arbiter.tick_bus
        bus = self.bus
        ticked = self._ticked_devices
        gapped = self._gap_devices
        # Gap-integrating devices still due their first tick in this call,
        # and the ones already ticked.
        fresh: List[Device] = list(gapped)
        lazy: List[Device] = []
        events = self.observability.bus
        ratio = self.config.bus.cpu_ratio
        limit = max_cycles if until is None else min(until, max_cycles)
        start = cycle = self.cycle
        bus_cycle = -1  # the last bus cycle ticked or jumped over
        live = None  # a process known not to have halted
        landed = False  # the clock just jumped to a cycle something acts in
        try:
            while True:
                if live is None or live.halted:
                    live = scheduler.live_process()
                    if live is None and quiescent():
                        if feed is None:
                            break
                        for device in lazy:
                            device.tick(bus_cycle)
                        self.cycle = cycle
                        more = feed(self)
                        start += self.cycle - cycle
                        cycle = self.cycle
                        if not more:
                            break
                        live = scheduler.live_process()
                        if live is None:
                            raise DeadlockError(
                                "stream feed returned True without adding work",
                                cycle=cycle,
                            )
                        fresh += gapped[len(fresh) + len(lazy):]
                        events = self.observability.bus
                if cycle >= limit:
                    if until is not None and cycle >= until:
                        break
                    raise DeadlockError(
                        f"exceeded max_cycles={max_cycles}",
                        cycle=cycle,
                        snapshot=self.core.machine_snapshot(),
                    )
                if landed:
                    landed = False
                else:
                    for core in cores:
                        if not core._sleep_until:
                            context = core.context
                            if context is not None and not context.halted:
                                break  # an awake core: tick
                    else:
                        target = self._next_event(cycle, limit)
                        if target > cycle:
                            bus_cycle = self._skip(
                                cycle, target, fresh, lazy, bus_cycle
                            )
                            cycle = target
                            landed = True
                            continue
                if events is not None:
                    events.now = cycle
                for unit in units:
                    if unit.next_due <= cycle:
                        unit.tick_cpu(cycle)
                    else:
                        unit._now = cycle
                if cycle % ratio == 0:
                    bus_cycle = cycle // ratio
                    if lazy:  # a completing transaction may reach one
                        due = bus.next_completion
                        if due is not None and due <= bus_cycle:
                            for device in lazy:
                                device.tick(bus_cycle - 1)
                    arbiter_tick(bus_cycle)
                    for device in ticked:
                        device.tick(bus_cycle)
                    if fresh:
                        for device in fresh:
                            device.tick(bus_cycle)
                        lazy += fresh
                        fresh.clear()
                for tick in core_ticks:
                    tick(cycle)
                for queue in queues:
                    if queue.quantum is None:
                        context = queue.core.context
                        if context is not None and not context.halted:
                            continue  # CoreScheduler.waits' common case
                        if queue.waits():
                            continue
                    queue.tick(cycle)
                cycle += 1
        finally:
            self.cycle = cycle
            for device in lazy:
                device.tick(bus_cycle)
            for core in cores:
                core.settle()
        return cycle - start

    def _next_event(self, cycle: int, limit: int) -> int:
        """The earliest cycle, from ``cycle`` on and at most ``limit``, at
        which any component could act while every core waits: each one
        that could answers for itself and the clock driver jumps to the
        minimum.

        That is a sleeping core's wake cycle, a unit's next flush result,
        a run queue's switch or quantum end (only a queue whose tick can
        act, :meth:`~repro.sim.scheduler.CoreScheduler.waits`), the cycle
        after a D-cache fill lands (the driver's drain check installs it,
        and may queue a write-back), and — on bus cycles — the bus
        arbiter's next completion or useful grant poll and the timers of
        the devices ticked every bus cycle.  Written as plain loops: it
        runs once per jump, and a jump saves only a few cheap sleeping
        ticks.
        """
        target = limit
        for core in self.cores:
            wake = core.next_event(cycle)
            if wake is not None and wake < target:
                target = wake
        for unit in self.units:
            if unit.next_due < target:
                target = unit.next_due
        for queue in self.scheduler.queues:
            if not queue.waits():
                wake = queue.next_event(cycle)
                if wake is not None and wake < target:
                    target = wake
        if self.dcaches:
            drained = self.units[0]._now  # what _quiescent drained fills up to
            for dcache in self.dcaches:
                fill = dcache.next_fill(drained)
                if fill is not None and fill < target - 1:
                    target = fill + 1
        ratio = self.config.bus.cpu_ratio
        bus_cycle = -(-cycle // ratio)  # the first bus cycle from ``cycle`` on
        if bus_cycle * ratio < target:
            timed: Tuple[_Timed, ...] = (self.arbiter, *self._ticked_devices)
            for component in timed:
                wake = component.next_event(bus_cycle)
                if wake is not None and wake * ratio < target:
                    target = wake * ratio
        return target if target > cycle else cycle

    def _skip(
        self,
        cycle: int,
        target: int,
        fresh: List[Device],
        lazy: List[Device],
        bus_cycle: int,
    ) -> int:
        """Jump the clock from ``cycle`` to ``target``, leaving the machine
        as ticking cycles ``cycle .. target - 1`` would (no component acts
        in them, :meth:`_next_event`), and return the last bus cycle
        jumped over (``bus_cycle`` when there is none).

        The clocks components read move to ``target - 1``: the sleeping
        cores' (each pays for its sleep when it settles), the units' and
        the event clock.  The devices ticked every bus cycle tick at the
        first and the last skipped bus cycle; a gap-integrating device
        still due its first tick (``fresh``) gets it at the first one and
        joins ``lazy``.
        """
        last = target - 1
        for core in self.cores:
            core.now = last
        for unit in self.units:
            unit._now = last  # no flush result falls due before target
        events = self.observability.bus
        if events is not None:
            events.now = last
        ratio = self.config.bus.cpu_ratio
        first_bus, last_bus = -(-cycle // ratio), last // ratio
        self.jumped_cycles += target - cycle
        if first_bus > last_bus:
            return bus_cycle
        for device in self._ticked_devices:
            device.tick(first_bus)
            if last_bus != first_bus:
                device.tick(last_bus)
        if fresh:
            for device in fresh:
                device.tick(first_bus)
            lazy += fresh
            fresh.clear()
        return last_bus

    def run(self, max_cycles: int = 5_000_000) -> StatsCollector:
        """Run until every process has halted and all I/O has drained."""
        self.advance(max_cycles=max_cycles)
        return self.stats

    def run_cycles(self, count: int) -> None:
        """Advance exactly ``count`` CPU cycles (for incremental tests)."""
        for _ in range(count):
            self.step()

    def run_streamed(self, feed, max_cycles: int = 5_000_000) -> StatsCollector:
        """Run with a feed that injects work whenever the machine drains.

        This is the trace-replay loop (see :meth:`advance` for the feed
        contract): the feed compiles the next window of trace records into
        programs, retiring the previous window's contexts and condensing
        its transaction records first so memory stays bounded no matter
        how long the stream is.  ``max_cycles`` bounds the *whole* run.
        """
        self.advance(feed=feed, max_cycles=max_cycles)
        return self.stats

    def _quiescent(self) -> bool:
        """Every uncached unit drained (shared-bus drain checked by each),
        and — when the D-cache occupies the bus — its engines drained too."""
        for unit in self.units:
            if not unit.quiescent():
                return False
        if self.dcaches:
            # Outstanding refills must land (installing their lines and
            # generating any dirty-victim write-backs) before the machine
            # is done; the units tick first each cycle, so unit 0's clock
            # is the current CPU cycle.
            now = self.units[0]._now
            for dcache in self.dcaches:
                dcache.drain(now)
                if not dcache.quiescent():
                    return False
            if self.writeback_engine is not None and self.writeback_engine.pending:
                return False
            if self.refill_engine is not None and self.refill_engine.pending:
                return False
        return True

    def _csb_invalidate(self, address: int, size: int) -> None:
        """Invalidate-on-CSB-write: a committed CSB burst drops every
        covered line from every core's D-cache."""
        for dcache in self.dcaches:
            dcache.invalidate_span(address, size)

    def warm(self, address: int) -> None:
        """Install a line everywhere it could hit: the blocking hierarchy
        and — when enabled — every core's D-cache (e.g. a warm lock)."""
        self.hierarchy.warm(address)
        for dcache in self.dcaches:
            dcache.warm(address)

    @property
    def finished(self) -> bool:
        return self.scheduler.all_halted and self._quiescent()

    # -- measurement shortcuts -----------------------------------------------------

    @property
    def store_bandwidth(self) -> float:
        """Bytes per bus cycle over the uncached-store window (the paper's
        Figure 3/4 metric)."""
        return self.stats.uncached_store_window.bytes_per_cycle

    def span(self, start_label: str, end_label: str) -> int:
        """CPU cycles between two ``mark`` instructions (Figure 5 metric)."""
        return self.stats.span(start_label, end_label)

    def metrics(self, **extra):
        """A :class:`~repro.observability.metrics.MetricsSnapshot` of the
        run so far (normally taken after :meth:`run`)."""
        from repro.observability.metrics import MetricsSnapshot

        return MetricsSnapshot.from_system(self, **extra)
