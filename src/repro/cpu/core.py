"""The dynamically scheduled core.

Model summary (paper §4.1):

* Four-wide in-order dispatch into a unified dispatch queue / reorder buffer;
  four-wide in-order retirement.
* Out-of-order issue to two integer and two FP units as operands become
  ready; results feed dependents through references to their producers'
  in-flight records (true data dependencies only — renaming removes false
  dependencies).
* A separate memory queue performs address calculation speculatively and
  executes cached loads out of order (with exact disambiguation against
  older stores and store-to-load forwarding).
* Cached stores commit at retirement; atomic swaps on cached space perform
  their read-modify-write non-speculatively at the head of the ROB.
* Uncached operations issue strictly in program order, non-speculatively,
  at the head of the ROB, through a single uncached port (one per cycle);
  no value is ever forwarded from an uncached store to a load.
* A membar may not graduate until the uncached buffer has emptied.

The model is *functional-first*: results computable from architecturally
known values are computed at dispatch, so branches resolve with oracle
accuracy (the configured default models the well-predicted steady state the
paper measures; the mispredict penalty knob exists for sensitivity studies).
Results that depend on the timed world — uncached loads and the CSB
conditional flush — stay unknown until the timing model delivers them, and
anything that needs such a value (a dependent branch, a memory operand)
stalls dispatch until it resolves, which is exactly the data-dependent
stall the paper's retry-check sequences pay.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.common.config import CoreConfig
from repro.common.errors import DeadlockError, SimulationError
from repro.common.stats import Counter, StatsCollector
from repro.cpu.context import ProcessContext
from repro.cpu.decode import (
    DecodedOp,
    ROUTE_ISSUE,
    ROUTE_MEMQ,
    SpinLoop,
    decode_program,
)
from repro.cpu.inflight import InFlight, MemState
from repro.cpu.trace import PipelineTrace
from repro.cpu.units import FunctionalUnitPool
from repro.isa import semantics
from repro.isa.disassembler import disassemble_instruction
from repro.isa.instructions import BLOCK_STORE_REGS, FU_FP
from repro.isa.registers import MASK64
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.layout import PageAttr
from repro.memory.tlb import AttributeTLB
from repro.uncached.unit import UncachedUnit

_program_order = attrgetter("seq")

#: ``_sleep_until`` of a spin sleep in a loop with no exit (``ba``): only a
#: wake, the clock driver's ``until`` or ``max_cycles`` ends it.
_NEVER = 1 << 62


class Core:
    """One out-of-order processor executing one context at a time."""

    def __init__(
        self,
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
        tlb: AttributeTLB,
        uncached_unit: UncachedUnit,
        stats: StatsCollector,
        trace: Optional[PipelineTrace] = None,
        core_id: int = 0,
        dcache=None,
    ) -> None:
        self.config = config
        self.core_id = core_id
        self.trace = trace
        #: Observability event bus; None (the default) means uninstrumented.
        self.events = None
        #: The non-blocking D-cache (repro.memory.dcache), or None — the
        #: default — in which case every cached access takes the historical
        #: blocking-hierarchy path, byte-identically.
        self.dcache = dcache
        self.hierarchy = hierarchy
        self.tlb = tlb
        self.unit = uncached_unit
        self.stats = stats
        self.fus = FunctionalUnitPool(config)
        self.context: Optional[ProcessContext] = None
        #: the installed context's register values (``raw_values``)
        self._registers: Dict[str, int] = {}
        self._rob: Deque[InFlight] = deque()
        #: every dispatched memory operation, in program order: store
        #: disambiguation and snapshots read all of it
        self._memq: List[InFlight] = []
        #: what the memory-queue stage walks instead (see _memq_issue)
        self._memq_wait: List[InFlight] = []
        self._memq_access: List[InFlight] = []
        #: the installed program's per-pc decode table (repro.cpu.decode)
        self._ops: List[DecodedOp] = []
        #: dispatched ALU/FP/branch instructions awaiting a functional unit,
        #: in dispatch (= program) order; removed once issued.  Keeping this
        #: separate from the ROB turns the issue stage from an O(ROB) scan
        #: per cycle into a walk of only the not-yet-issued candidates.
        self._issueq: List[InFlight] = []
        #: Issue-queue entries a producer woke: an entry parks on its
        #: producer's ``waiters`` until that producer gets a ready cycle;
        #: the site recording the cycle moves them here, and the next issue
        #: scan merges them back in program order.  A parked entry is not
        #: rescanned every cycle.
        self._woken: List[InFlight] = []
        # Hot counters, resolved once: the pipeline loops bump these every
        # cycle and the lazy name lookup in StatsCollector.bump is measurable.
        self._n_dispatched = stats.counter("core.dispatched")
        self._n_issued = stats.counter("core.issued")
        self._n_retired = stats.counter("core.retired")
        self._n_branches = stats.counter("core.branches")
        # Per-event counters, each minted on its first bump.
        self._rob_full_stalls = stats.handle("core.rob_full_stalls")
        self._memq_full_stalls = stats.handle("core.memq_full_stalls")
        self._frontend_value_stalls = stats.handle("core.frontend_value_stalls")
        self._cached_loads = stats.handle("core.cached_loads")
        self._cached_stores = stats.handle("core.cached_stores")
        self._cached_swaps = stats.handle("core.cached_swaps")
        self._sc_failures = stats.handle("core.sc_failures")
        self._uncached_stores = stats.handle("core.uncached_stores")
        self._uncached_store_stalls = stats.handle("core.uncached_store_stalls")
        self._squashed = stats.handle("core.squashed")
        #: register -> its newest in-flight producer's record
        self._spec_map: Dict[str, InFlight] = {}
        self._seq = 0
        self._spec_pc = 0
        self._fetch_stopped = False
        self._drain_requested = False
        self._interrupt_pending = False
        # Load-linked link register: the linked line address, or None.
        self._link: Optional[int] = None
        self._last_progress = 0
        self.now = 0
        # Quiet-tick sleeping (see tick): while asleep the core skips its
        # stages, until ``_sleep_until`` or until the bus accepts a
        # transaction (its count moves off ``_sleep_bus_mark``).  One quiet
        # tick's counter increments, the ledger, are owed for every slept
        # cycle and paid at once by _settle, up to the cycle it is given;
        # ``_settled`` is the last cycle paid for.
        self._bus = uncached_unit.bus
        self._sleep_until = 0
        self._sleep_bus_mark = 0
        self._sleep_ledger: List[Tuple[Counter, int]] = []
        self._sleep_mshr_stalls = 0
        self._settled = 0
        #: no ROB entry's ``ready_at`` lies after this cycle (see _wake_cycle)
        self._horizon = 0
        self._progress_mark = 0
        self._armed = False
        # This core's own issues, part of the sleep trigger's progress:
        # the stats counters are shared by every core.
        self._issued = 0
        # Spin sleeping (see _try_spin): while asleep in a register-only
        # loop, ``_spin`` is one period's (seq shift, register addends) and
        # the pipeline holds the state after the tick of ``_settled``.
        self._spin: Optional[Tuple[int, Dict[str, int]]] = None
        self._spin_armed = False
        self._spin_rob = 0  # ROB occupancy after the last gate check
        self._spin_retry = 0  # a failed spin probe backs off until here
        #: Host-side count of cycles this core slept through, jumped ones
        #: included (diagnostics; not a simulated statistic).
        self.slept_ticks = 0
        #: Host-side count of the slept cycles spent inside a spin.
        self.spun_ticks = 0
        #: Host-side count of issue-queue entries parked (diagnostics).
        self.parked_entries = 0
        #: Every core on this core's bus, itself included (System wires
        #: it): the no-progress DeadlockError snapshots all of them.
        self.machine_cores: List["Core"] = [self]

    # -- context management ------------------------------------------------------

    def install_context(self, context: ProcessContext) -> None:
        """Begin executing ``context`` (pipeline must be empty)."""
        if self._rob:
            raise SimulationError("cannot switch context with instructions in flight")
        self.context = context
        self._registers = context.registers.raw_values
        self._ops = decode_program(context.program)
        self._spec_pc = context.pc
        self._fetch_stopped = context.halted
        self._drain_requested = False
        self._interrupt_pending = False
        self._spec_map.clear()
        self._memq.clear()
        self._memq_wait.clear()
        self._memq_access.clear()
        self._issueq.clear()
        self._woken.clear()
        self._link = None  # a context switch breaks any load link
        self._last_progress = self.now
        self.wake()

    def request_drain(self) -> None:
        """Stop dispatching; the pipeline empties through retirement."""
        self._drain_requested = True
        self.wake()

    def wake(self) -> None:
        """End a sleep: something the stalled pipeline polls changed
        outside the bus, or something from outside is about to act on a
        spinning one (see :meth:`tick`).  Callers that write core state
        from outside — the scheduler parking a context, value deliveries —
        must call this."""
        self.settle()
        self._spin = None
        self._sleep_until = 0

    def settle(self) -> None:
        """Bring a sleeping core up to :attr:`now`, so a reader between
        ticks sees what ticking would have left: pay the ledger for the
        cycles slept since the last settle and shift a spin sleep's
        pipeline; the sleep goes on.  A no-op for an awake core."""
        self._settle(self.now)

    def interrupt(self) -> None:
        """Deliver a precise timer interrupt.

        Dispatch stops immediately; instructions that have not retired are
        squashed (their dispatch-time functional effects undone) and will
        re-execute when the process is rescheduled.  An uncached operation
        already issued to the device cannot be squashed (exactly-once), so
        the squash waits until it completes.

        This is what exposes the paper's §3.2 interleaving: combining
        stores that retired before the interrupt have reached the CSB, the
        squashed conditional flush re-executes after the competitor ran,
        and the flush then fails and triggers the software retry.
        """
        self._drain_requested = True
        self._interrupt_pending = True
        self.wake()

    @property
    def drained(self) -> bool:
        return not self._rob

    @property
    def halted(self) -> bool:
        return self.context is None or self.context.halted

    @property
    def link_address(self) -> Optional[int]:
        """The load-linked link register: linked line address or None.

        Architectural state the tiered execution engine carries across the
        detailed/fast-forward boundary (``install_context`` deliberately
        breaks the link, so a hand-off that preserves it must restore it
        through the setter afterwards).
        """
        return self._link

    @link_address.setter
    def link_address(self, value: Optional[int]) -> None:
        self._link = value
        self.wake()

    # -- main clock ----------------------------------------------------------------

    def tick(self, now: int) -> None:
        """Advance one CPU cycle.

        A stalled core sleeps instead of re-running its stages.  A *quiet*
        tick dispatches, issues, retires and transitions nothing; it only
        bumps stall counters.  After a quiet tick that was probed (its
        pipeline state and counters recorded around it), the core sleeps
        until the earliest cycle one of its own timers could change the
        outcome, owing that tick's counter increments for each cycle.
        It wakes early when the bus accepts a transaction — the only way a
        bus cycle changes the uncached buffer, the CSB line buffers or
        ``barrier_clear`` — and when :meth:`wake` is called: a value
        delivery, an interrupt, a drain request or a context change.

        A *spinning* core sleeps too (see :meth:`_try_spin`): after a
        probed tick in a register-only loop's period-1 steady state, it
        owes that tick's counter increments for each cycle until the
        loop's exit is dispatched or :meth:`wake` is called.

        A sleeping tick only moves :attr:`now`.  What the slept cycles owe
        — the counter increments, and a spin sleep's pipeline shift by the
        periods slept — is paid once, when the sleep ends or when
        :meth:`settle` is called.  Every simulated result is identical to
        ticking through.
        """
        self.now = now
        context = self.context
        if context is None or context.halted:
            return
        woke = False
        if self._sleep_until:
            if now < self._sleep_until and (
                self._bus.accepted == self._sleep_bus_mark or self._spin is not None
            ):
                return
            # Woken by the bus or a timer: pay for the cycles slept and
            # probe at once.  Often nothing changed for this core (another
            # initiator's transaction), and otherwise the stall usually
            # resumes right after this tick.
            self._settle(now - 1)
            self._spin = None
            self._sleep_until = 0
            woke = self._armed = True
        probe = self._quiet_probe() if self._armed else None
        spin_probe = self._spin_probe(now) if self._spin_armed else None
        self.fus.new_cycle()
        self._retire(now)
        if self._interrupt_pending and self._try_squash():
            return
        self._issue(now)
        self._memq_issue(now)
        if not self._drain_requested and not self._fetch_stopped:
            self._dispatch(now)
        if not self._rob:
            self._last_progress = now  # idle, not stuck
        if now - self._last_progress > 50_000:
            raise DeadlockError(
                f"no retirement progress; ROB head "
                f"{self._rob[0].describe() if self._rob else 'empty'}",
                cycle=now,
                snapshot=self.machine_snapshot(),
            )
        # Only a wake or a tick that dispatched, issued and retired nothing
        # arms the quiet probe, so busy ticks pay one sum and one
        # comparison; a busy tick with the ROB head in a register-only
        # loop checks whether it is spinning once the ROB is as full as
        # after the last such tick.  Progress counts this core's own
        # work: a dispatch adds one to ``_seq`` and the ROB, a retirement
        # or squash takes from the ROB, an issue adds to ``_issued``.
        rob = self._rob
        progress = 2 * self._seq - len(rob) + self._issued
        if progress != self._progress_mark:
            self._progress_mark = progress
            self._armed = woke
            if spin_probe is not None:
                self._try_spin(now, spin_probe)
            elif rob and rob[0].op.spin is not None:
                occupancy = len(rob)
                if occupancy == self._spin_rob and now >= self._spin_retry:
                    self._spin_armed = self._spinning()
                self._spin_rob = occupancy
        elif probe is not None:
            self._armed = False
            self._try_sleep(now, probe)
        else:
            self._armed = bool(rob)

    # -- quiet-tick sleeping ----------------------------------------------------------

    def _pipeline_state(self) -> tuple:
        """What tells whether a tick changed anything besides stall
        counters, in O(1).

        Dispatch, issue and retirement move the first three fields (and
        with them every undo record).  Every other transition (cache
        access, store commit readiness, uncached issue, atomics at the
        head) is a memory-queue entry changing state, and during the
        core's own tick only two kinds of entry do: the ROB head (the
        retire stage acts on nothing else without retiring it), and the
        members of the memory-queue stage's two walk lists, each of which
        leaves its list when it changes (see :meth:`_memq_issue`).  So
        the head's fields and the two lists' lengths stand in for a
        snapshot of every entry.  Parking and merging woken entries move
        the issue-queue length, and a producer that wakes parked entries
        changes one of the above.
        """
        rob = self._rob
        head = rob[0] if rob else None
        return (
            self._seq,
            self._issued,
            len(rob),
            len(self._issueq),
            self._last_progress,
            self._interrupt_pending,
            self._drain_requested,
            self._fetch_stopped,
            self._link,
            len(self._memq_wait),
            len(self._memq_access),
            None
            if head is None
            else (head.mem_state, head.ready_at, head.value_known, head.cache_issued),
        )

    def _quiet_probe(self) -> tuple:
        """State and counters before a probed tick."""
        mshr_stalls = self.dcache.mshr_stall_cycles if self.dcache else 0
        return self._pipeline_state(), self._counts(), mshr_stalls

    def _counts(self) -> List[int]:
        """Every counter's value, in the collector's creation order."""
        return [counter.value for counter in self.stats.live_counters()]

    def _ledger(self, before: List[int]) -> List[Tuple[Counter, int]]:
        """What one slept cycle re-applies: each counter's increment since
        ``before`` was taken, at the start of the probed tick (later
        counts would include other cores' increments).  Counters are
        never removed, so ``before`` lines up with the oldest ones; a
        counter minted since started at 0."""
        live = list(self.stats.live_counters())
        ledger = [
            (counter, counter.value - value)
            for counter, value in zip(live, before)
            if counter.value != value
        ]
        ledger += [
            (counter, counter.value) for counter in live[len(before):] if counter.value
        ]
        return ledger

    def _try_sleep(self, now: int, probe: tuple) -> None:
        """Fall asleep after a probed tick that turned out quiet."""
        state, before, mshr_stalls = probe
        if not self._rob or self._pipeline_state() != state:
            return
        wake = self._wake_cycle(now)
        if wake <= now + 1:
            return
        self._sleep_ledger = self._ledger(before)
        self._sleep_mshr_stalls = (
            self.dcache.mshr_stall_cycles - mshr_stalls if self.dcache else 0
        )
        self._sleep_until = wake
        self._sleep_bus_mark = self._bus.accepted
        self._settled = now

    def _wake_cycle(self, now: int) -> int:
        """Earliest cycle after ``now`` at which a timer the pipeline
        compares against could flip a decision.

        That is the watchdog horizon, the future ``ready_at`` of ROB
        entries and, with the D-cache on, the next MSHR fill.  Producer
        ready cycles, issue-queue ``stall_until`` hints and parked entries
        need no scan of their own: a retired producer's result was ready by
        its retirement, and a producer still in flight is a ROB entry.
        The ROB is walked only while ``_horizon``, the latest ready cycle
        the core recorded, is still ahead: most sleeps start with every
        result in the ROB long ready and end on a bus acceptance.
        """
        wake = self._last_progress + 50_001  # the no-progress watchdog
        if self._horizon > now:
            for flight in self._rob:
                ready = flight.ready_at
                if ready is not None and now < ready < wake:
                    wake = ready
        if self.dcache is not None:
            fill = self.dcache.next_fill(now)
            if fill is not None and fill < wake:
                wake = fill
        return wake

    # -- spin sleeping ------------------------------------------------------------------

    def _spinning(self) -> bool:
        """The cheap half of the spin trigger: every ROB entry and the
        dispatch point sit in one register-only loop (decode's
        :class:`~repro.cpu.decode.SpinLoop`), so the issue queue, the
        parked and woken entries do too and the memory queue is empty;
        nothing stops dispatch; no pipeline trace is attached (its records
        interleave cores in cycle order)."""
        rob = self._rob
        if (
            not rob
            or self.trace is not None
            or self._drain_requested
            or self._interrupt_pending
            or self._fetch_stopped
        ):
            return False
        loop = rob[0].op.spin
        if loop is None:
            return False
        head, branch = loop.head, loop.branch
        if not head <= self._spec_pc <= branch:
            return False
        for flight in rob:
            if not head <= flight.pc <= branch:
                return False
        return True

    def _spin_state(self, cycle: int) -> tuple:
        """Everything a later tick reads of a spinning pipeline, relative:
        seqs to ``_seq``, cycles to ``cycle`` (the next tick's), and
        loop-register values to the register's committed value.

        ``InFlight.dispatch_cycle`` is left out (only dispatch reads it, of
        the entry it builds), and a ``stall_until`` hint that has passed
        reads as 0.  The loop reads no other register, the memory queue is
        empty and no flag stops dispatch (see :meth:`_spinning`).
        """
        assert self.context is not None
        seq = self._seq
        committed = self.context.registers.raw_values
        entries = []
        for flight in self._rob:
            value = flight.value
            writes = flight.op.writes
            if value is not None and writes is not None:
                value = (value - committed[writes]) & MASK64
            deps = []
            for reg, producer in flight.deps.items():
                known = producer.value
                at = producer.ready_at
                deps.append(
                    (
                        reg,
                        producer.seq - seq,
                        None if known is None else (known - committed[reg]) & MASK64,
                        None if at is None else at - cycle,
                    )
                )
            ready_at = flight.ready_at
            entries.append(
                (
                    flight.pc,
                    flight.seq - seq,
                    value,
                    flight.value_known,
                    flight.issued,
                    None if ready_at is None else ready_at - cycle,
                    flight.taken,
                    max(flight.stall_until - cycle, 0),
                    [
                        (reg, (known - committed[reg]) & MASK64)
                        for reg, known in flight.src_vals.items()
                    ],
                    deps,
                    [waiter.seq - seq for waiter in flight.waiters or ()],
                )
            )
        return (
            entries,
            [flight.seq - seq for flight in self._issueq],
            [flight.seq - seq for flight in self._woken],
            {reg: producer.seq - seq for reg, producer in self._spec_map.items()},
            self._spec_pc,
            self.context.pc,
            self._last_progress - cycle,
        )

    def _spin_probe(self, now: int) -> tuple:
        """State, counters and ``_seq`` before a probed spinning tick."""
        self._spin_armed = False
        return self._spin_state(now), self._counts(), self._seq

    def _try_spin(self, now: int, probe: tuple) -> None:
        """Fall asleep after a probed tick that turned out to be one period
        of a register-only loop's steady state: the state after it equals
        the state before, shifted by one period (seqs by the instructions
        it dispatched, cycles by one, each loop register by what those
        iterations add).

        The tick commutes with that shift as long as every branch it
        dispatches is taken, because the loop body only adds constants;
        so the core sleeps until the first cycle that dispatches the exit
        (:meth:`_spin_exit`), re-applying the probed tick's counter
        increments each cycle as a quiet sleep does.  A period-2 steady
        state (``int_latency=2``, say) fails the probe and ticks through.
        After a failed probe the next waits two cycles.
        """
        state, before, seq = probe
        if not self._spinning() or self._spin_state(now + 1) != state:
            self._spin_retry = now + 2
            return
        loop = self._rob[0].op.spin
        assert loop is not None
        # Equal states put dispatch back at the same pc, having dispatched
        # only loop instructions since: whole iterations, at least one.
        iterations = (self._seq - seq) // (loop.branch - loop.head + 1)
        wake = self._spin_exit(now, loop, iterations)
        if wake <= now + 1:
            return
        self._sleep_ledger = self._ledger(before)
        self._sleep_mshr_stalls = 0
        addends = {reg: (step * iterations) & MASK64 for reg, step in loop.steps}
        self._spin = (self._seq - seq, addends)
        self._settled = now
        self._sleep_until = wake

    def _spin_exit(self, now: int, loop: SpinLoop, iterations: int) -> int:
        """The first cycle after ``now`` that dispatches the loop's exit, a
        ``brnz`` that sees its register at zero, when each tick dispatches
        ``iterations`` whole iterations (``_NEVER`` for ``ba``, or when the
        register never reaches zero)."""
        cond = loop.cond
        if cond is None:
            return _NEVER
        assert self.context is not None
        producer = self._spec_map.get(cond)
        value = (
            self.context.registers.raw_values[cond]
            if producer is None
            else producer.value  # known at dispatch in such a loop
        )
        assert value is not None
        # The m-th branch dispatched from here sees first + (m - 1) * step:
        # solve j * step == -first (mod 2**64) for the smallest j >= 0.
        first = (value + loop.to_branch[self._spec_pc - loop.head]) & MASK64
        step = dict(loop.steps)[cond]
        if not step:
            return now if not first else _NEVER
        low = step & -step
        if first % low:
            return _NEVER
        modulus = (1 << 64) // low
        j = (-(first // low) * pow(step // low, -1, modulus)) % modulus
        return now + (j + iterations) // iterations

    def _settle(self, last: int) -> None:
        """Pay what the cycles slept after ``_settled`` up to ``last`` owe:
        what ticking them would have left (:meth:`_pay`, and for a spin
        sleep :meth:`_shift`)."""
        if not self._sleep_until or last <= self._settled:
            return
        cycles = last - self._settled
        self._settled = last
        self._pay(cycles)
        if self._spin is not None:
            self._shift(cycles)

    def _pay(self, cycles: int) -> None:
        """Re-apply the sleep ledger (and the D-cache's MSHR stall cycles)
        once per slept cycle, in one pass."""
        for counter, amount in self._sleep_ledger:
            counter.value += amount * cycles
        if self._sleep_mshr_stalls:
            self.dcache.mshr_stall_cycles += self._sleep_mshr_stalls * cycles
        self.slept_ticks += cycles

    def _shift(self, periods: int) -> None:
        """Shift a spin sleep's pipeline by ``periods`` periods.

        Every in-flight record moves its source values and stall cycle;
        it and every retired producer one still reads move their seq,
        value and ready cycle, each once.  So do ``_seq``, the watchdog's
        ``_last_progress``, the committed loop registers and
        ``retired_instructions``.  Producer references, waiters and
        ``_spec_map`` point at records and need no change;
        ``context.pc`` repeats every period.
        """
        spin = self._spin
        assert spin is not None and self.context is not None
        self.spun_ticks += periods
        seqs = spin[0] * periods
        addends = {reg: (step * periods) & MASK64 for reg, step in spin[1].items()}
        records = set(self._rob)
        for flight in self._rob:
            records.update(flight.dep_list)
            if flight.src_vals:
                flight.src_vals = {
                    reg: (value + addends[reg]) & MASK64
                    for reg, value in flight.src_vals.items()
                }
            if flight.stall_until:
                flight.stall_until += periods
        for flight in records:
            flight.seq += seqs
            writes = flight.op.writes
            if flight.value is not None and writes is not None:
                flight.value = (flight.value + addends[writes]) & MASK64
            if flight.ready_at is not None:
                flight.ready_at += periods
        self._horizon += periods
        self._seq += seqs
        self._last_progress += periods
        registers = self.context.registers.raw_values
        for reg, addend in addends.items():
            registers[reg] = (registers[reg] + addend) & MASK64
        self.context.retired_instructions += seqs

    def next_event(self, now: int) -> Optional[int]:
        """Earliest cycle, from ``now`` on, at which this core must be
        ticked (the System's clock jump): None without a live context,
        ``now`` while awake, else the end of its sleep.  A bus acceptance
        needs no check here: the arbiter grants before the cores tick, so
        the core already woke in the cycle it happened."""
        context = self.context
        if context is None or context.halted:
            return None
        return self._sleep_until or now

    def machine_snapshot(self) -> Dict[str, object]:
        """What a no-progress DeadlockError carries: every core on the bus
        (:meth:`snapshot`), the shared CSB's pending bursts and the bus
        transactions in flight."""
        return {
            "cycle": self.now,
            "cores": [core.snapshot() for core in self.machine_cores],
            "csb_pending_bursts": self.unit.csb.pending_bursts,
            "bus_in_flight": self._bus.in_flight(),
        }

    def snapshot(self) -> Dict[str, object]:
        """Diagnostic view of this core (settled first, see
        :meth:`settle`): the ROB head, queue occupancy, sleep state and
        uncached-buffer occupancy."""
        self.settle()
        head = self._rob[0] if self._rob else None
        return {
            "core": self.core_id,
            "pid": None if self.context is None else self.context.pid,
            "rob": len(self._rob),
            "memq": len(self._memq),
            "head": None
            if head is None
            else {
                "seq": head.seq,
                "pc": head.pc,
                "op": disassemble_instruction(head.instr),
                "mem_state": head.mem_state.value,
            },
            "asleep_until": (
                self._sleep_until if self.now < self._sleep_until < _NEVER else None
            ),
            "slept_ticks": self.slept_ticks,
            "uncached_buffer": self.unit.buffer.occupancy,
        }

    # -- dispatch stage ---------------------------------------------------------------

    def _dispatch(self, now: int) -> None:
        assert self.context is not None
        # Hot loop: config limits, queues, the decode table, the register
        # mapping and the (usually-None) trace are hoisted to locals
        # instead of being re-resolved per instruction.
        config = self.config
        rob = self._rob
        memq = self._memq
        rob_entries = config.rob_entries
        memq_entries = config.memq_entries
        ops = self._ops
        spec_map = self._spec_map
        registers = self._registers
        trace = self.trace
        budget = config.dispatch_width
        dispatched = 0
        while budget > 0:
            if len(rob) >= rob_entries:
                self._rob_full_stalls.bump()
                break
            pc = self._spec_pc
            if pc >= len(ops):
                raise SimulationError(f"fetch ran past the program end at pc={pc}")
            op = ops[pc]
            route = op.route
            if route == ROUTE_MEMQ and len(memq) >= memq_entries:
                self._memq_full_stalls.bump()
                break
            # Source operands: known values into src_vals, in-flight
            # producers into deps.  A branch condition or memory operand
            # whose value is not yet known stalls the frontend.
            src_vals: Dict[str, int] = {}
            deps: Dict[str, InFlight] = {}
            stalled = False
            for reg in op.sources:
                producer = spec_map.get(reg)
                if producer is None:
                    src_vals[reg] = registers[reg]  # r0 reads as 0
                    continue
                deps[reg] = producer
                value = producer.value
                if value is not None:
                    src_vals[reg] = value
                elif op.needs_values:
                    stalled = True
                    break
            if stalled:
                self._frontend_value_stalls.bump()
                break
            self._seq += 1
            flight = InFlight(self._seq, op, pc, now, src_vals, deps)
            self._spec_pc = pc + 1  # a taken branch's effect redirects it
            op.dispatch(self, flight)
            writes = op.writes
            if writes is not None:
                spec_map[writes] = flight
            if trace is not None:
                trace.record(now, "dispatch", flight.seq, pc, op.instr)
            rob.append(flight)
            if route == ROUTE_MEMQ:
                memq.append(flight)
                if flight.attr is PageAttr.CACHED and not op.atomic:
                    self._memq_wait.append(flight)
            elif route == ROUTE_ISSUE:
                self._issueq.append(flight)
            if op.is_halt:
                self._fetch_stopped = True
                break
            if not op.is_mark:
                budget -= 1
            dispatched += 1
        if dispatched:
            self._n_dispatched.value += dispatched

    # Dispatch effects: functional-first execution, where possible.  Each
    # decode record carries the one its kind, route and opcode name
    # (repro.cpu.decode._handlers).  A branch or memory operation
    # dispatches only once every operand value is known, so its effect
    # reads them all from ``src_vals``.

    def _dispatch_nothing(self, flight: InFlight) -> None:
        """A nop: it only occupies a functional unit."""

    def _dispatch_issued(self, flight: InFlight) -> None:
        """No functional-unit class: nothing to issue."""
        flight.issued = True

    def _dispatch_untimed(self, flight: InFlight) -> None:
        """A mark, halt or membar: no result and no unit, so it is
        timing-ready at once."""
        self._record_ready(flight, flight.dispatch_cycle)

    def _dispatch_compute(self, flight: InFlight) -> None:
        """``set``, ``cmp``, ``alu``: the result now when every operand is
        known, else at issue."""
        if flight.operands_known():
            self._compute_value(flight)

    def _dispatch_ba(self, flight: InFlight) -> None:
        self._steer(flight, True)

    def _dispatch_brz(self, flight: InFlight) -> None:
        rs1 = flight.instr.rs1  # type: ignore[attr-defined]
        self._steer(flight, (flight.src_vals[rs1] & MASK64) == 0)

    def _dispatch_brnz(self, flight: InFlight) -> None:
        rs1 = flight.instr.rs1  # type: ignore[attr-defined]
        self._steer(flight, (flight.src_vals[rs1] & MASK64) != 0)

    def _dispatch_icc_branch(self, flight: InFlight) -> None:
        op = flight.instr.op  # type: ignore[attr-defined]
        self._steer(flight, semantics.branch_taken(op, cc=flight.src_vals["icc"]))

    def _steer(self, flight: InFlight, taken: bool) -> None:
        """Resolve a branch at dispatch: a taken one redirects fetch.  (With
        imperfect prediction the redirect penalty is charged at issue.)"""
        flight.taken = taken
        if taken:
            target = flight.op.target
            assert target is not None
            self._spec_pc = target
        self._n_branches.value += 1

    def _address(self, flight: InFlight) -> int:
        """Set and return a memory operation's address, and its page
        attribute."""
        instr: Any = flight.instr  # a memory instruction (decoded route)
        src_vals = flight.src_vals
        offset = instr.offset
        if isinstance(offset, str):
            offset = src_vals[offset]
        address = (src_vals[instr.base] + offset) & MASK64
        size = instr.size
        if address % size:
            raise SimulationError(
                f"unaligned {size}-byte access at {address:#x} (pc={flight.pc})"
            )
        flight.address = address
        flight.attr = self.tlb.attribute_of(address)
        return address

    def _dispatch_store(self, flight: InFlight) -> None:
        """A cached store writes memory now, keeping the bytes it
        overwrote; an uncached one carries its data to the ROB head."""
        address = self._address(flight)
        instr: Any = flight.instr
        data = flight.store_data = flight.src_vals[instr.rs]
        if flight.attr is PageAttr.CACHED:
            self._log_undo(flight, address, instr.size)
            self.hierarchy.write(address, data, instr.size)
            self._clear_link_if_written(address)

    def _dispatch_blockstore(self, flight: InFlight) -> None:
        address = self._address(flight)
        if flight.attr is PageAttr.CACHED:
            raise SimulationError(
                "block stores bypass the cache hierarchy; target "
                f"uncached space, not {address:#x}"
            )
        src_vals = flight.src_vals
        packed = 0
        for reg in BLOCK_STORE_REGS:
            packed = (packed << 64) | src_vals[reg]
        flight.store_data = packed

    def _dispatch_load(self, flight: InFlight) -> None:
        """A cached load reads its value now; an uncached one resolves
        through the uncached unit."""
        address = self._address(flight)
        if flight.attr is PageAttr.CACHED:
            size = flight.instr.size  # type: ignore[attr-defined]
            self._set_value(flight, self.hierarchy.read(address, size), ready=None)

    def _dispatch_ll(self, flight: InFlight) -> None:
        address = self._address(flight)
        if flight.attr is not PageAttr.CACHED:
            raise SimulationError(
                f"load-linked requires cached space, not {address:#x}"
            )
        self._set_value(flight, self.hierarchy.read(address, 8), ready=None)
        self._link = address - (address % self.hierarchy.config.line_size)

    def _dispatch_sc(self, flight: InFlight) -> None:
        address = self._address(flight)
        if flight.attr is not PageAttr.CACHED:
            raise SimulationError(
                f"store-conditional requires cached space, not {address:#x}"
            )
        line = address - (address % self.hierarchy.config.line_size)
        if self._link == line:
            data = flight.src_vals[flight.instr.rs]  # type: ignore[attr-defined]
            flight.store_data = data
            self._log_undo(flight, address, 8)
            self.hierarchy.write(address, data, 8)
            self._set_value(flight, 1, ready=None)
        else:
            self._set_value(flight, 0, ready=None)
        self._link = None  # an SC always consumes the link

    def _dispatch_swap(self, flight: InFlight) -> None:
        """A cached swap exchanges now; an uncached one (the CSB's
        conditional flush, or a device exchange) resolves through the
        uncached unit."""
        address = self._address(flight)
        expected = flight.src_vals[flight.instr.rd]  # type: ignore[attr-defined]
        flight.swap_expected = expected
        if flight.attr is PageAttr.CACHED:
            self._log_undo(flight, address, 8)
            old = self.hierarchy.read(address, 8)
            self.hierarchy.write(address, expected, 8)
            self._set_value(flight, old, ready=None)
            self._clear_link_if_written(address)

    def _compute_value(self, flight: InFlight) -> None:
        """Functional execution of ``set``, ``cmp`` and ``alu`` (decode's
        result closure)."""
        compute = flight.op.compute
        assert compute is not None
        self._set_value(flight, compute(flight), ready=None)

    def _set_value(
        self, flight: InFlight, value: int, ready: Optional[int]
    ) -> None:
        flight.value = value
        flight.value_known = True
        if ready is not None:
            self._record_ready(flight, ready)

    # -- issue stage -----------------------------------------------------------------

    def _issue(self, now: int) -> None:
        """Issue ALU/FP/branch instructions to functional units, oldest first."""
        queue = self._issueq
        woken = self._woken
        if woken:
            # Entries whose producer got a ready cycle since the last scan.
            # One woken earlier in this tick (a retire-stage access, a value
            # delivery) may issue now; one woken during the scan could not
            # have (int and FP latencies are >= 1).
            queue.extend(woken)
            queue.sort(key=_program_order)
            woken.clear()
        if not queue:
            return
        kept: List[InFlight] = []
        issued = 0
        for flight in queue:
            # Producers' ready cycles never move earlier once recorded, so a
            # failed dependency check yields a cycle before which re-checking
            # is pointless.
            if flight.stall_until > now:
                kept.append(flight)
                continue
            wait = 0
            unknown = None
            for producer in flight.dep_list:
                cycle = producer.ready_at
                if cycle is None:
                    unknown = producer
                    break
                if cycle > wait:
                    wait = cycle
            if unknown is not None:
                # The producer's timing is still unknown: park the entry
                # until the site that records the producer's ready cycle
                # wakes it (see _record_ready).
                waiters = unknown.waiters
                if waiters is None:
                    unknown.waiters = [flight]
                else:
                    waiters.append(flight)
                self.parked_entries += 1
                continue
            if wait > now:
                flight.stall_until = wait
                kept.append(flight)
                continue
            instr = flight.instr
            fu = instr.fu
            if not self.fus.acquire(fu):
                kept.append(flight)
                continue
            flight.issued = True
            latency = (
                self.config.fp_latency if fu == FU_FP else self.config.int_latency
            )
            if instr.is_branch and not self.config.perfect_branch_prediction:
                latency += self.config.branch_mispredict_penalty
            if not flight.value_known and flight.op.dest is not None:
                if not flight.operands_known():
                    raise SimulationError(
                        f"issued {instr!r} with unknown operand values"
                    )
                self._compute_value(flight)
            ready = flight.ready_at = now + latency
            if ready > self._horizon:  # _record_ready, inlined for the issue loop
                self._horizon = ready
            waiters = flight.waiters
            if waiters is not None:
                flight.waiters = None
                woken.extend(waiters)
            if self.trace is not None:
                self.trace.record(now, "issue", flight.seq, flight.pc, instr)
            issued += 1
        self._issueq = kept
        if issued:
            self._n_issued.value += issued
            self._issued += issued

    def _record_ready(self, flight: InFlight, cycle: int) -> None:
        """Record the cycle ``flight``'s result is available to dependents,
        and wake the issue-queue entries parked on it."""
        flight.ready_at = cycle
        if cycle > self._horizon:
            self._horizon = cycle
        waiters = flight.waiters
        if waiters is not None:
            flight.waiters = None
            self._woken.extend(waiters)

    # -- memory queue -----------------------------------------------------------------

    def _memq_issue(self, now: int) -> None:
        """Execute cached loads speculatively, out of order; mark cached
        stores ready to commit; complete cache accesses.

        Only two program-order lists are walked, not all of ``_memq``.
        ``_memq_wait`` holds the cached loads and stores still WAITING
        (dispatch appends them); an entry leaves it when it executes.
        ``_memq_access`` holds the accesses in flight: a load joins it
        here, a cached swap or store-conditional when the retire stage
        starts its access; an entry leaves it when it completes, or at the
        next walk once the retire stage has moved it on.  Uncached
        operations and not-yet-started atomics wait for the head of the
        ROB and are in neither list.
        """
        waiting = self._memq_wait
        if waiting:
            kept: List[InFlight] = []
            for flight in waiting:
                if not self._execute_cached(flight, now):
                    kept.append(flight)
            self._memq_wait = kept
        if self._memq_access:
            self._complete_cache_accesses(now)

    def _execute_cached(self, flight: InFlight, now: int) -> bool:
        """Try to execute one WAITING cached load or store; True when it
        left WAITING."""
        if flight.op.kind == "store":
            # Stores are ready to commit once operands are timing-ready.
            if not flight.timing_ready(now):
                return False
            self._mem_done(flight, now)
            return True
        # Cached load.
        if not flight.timing_ready(now):
            return False
        forward_from = self._forwarding_store(flight)
        if forward_from is not None:
            if not forward_from.timing_ready(now):
                return False
            self._mem_done(flight, now + 1)
            return True
        if self._older_store_blocks(flight):
            return False
        assert flight.address is not None
        ready = self._cache_access(flight.address, False, now)
        if ready is None:
            return False
        self._start_access(flight, ready)
        if self.trace is not None:
            self.trace.record(now, "cache", flight.seq, flight.pc, flight.instr)
        self._cached_loads.bump()
        return True

    def _cache_access(self, address: int, is_write: bool, now: int) -> Optional[int]:
        """Take a cache port and start an access: the cycle it completes,
        or None when no port is free.  With the non-blocking D-cache a
        primary miss allocates an MSHR and completes at the refill's
        precomputed arrival; a capacity stall (all MSHRs busy) retries
        next cycle before consuming a port."""
        dcache = self.dcache
        if dcache is not None and not dcache.can_accept(address, now):
            return None
        if not self.fus.acquire("cache"):
            return None
        if dcache is not None:
            return dcache.access(address, is_write, now)
        return now + self.hierarchy.access_latency(address, is_write=is_write)

    def _start_access(self, flight: InFlight, ready: int) -> None:
        """A cache access begins; it completes at ``ready``."""
        flight.mem_state = MemState.ACCESSING
        self._record_ready(flight, ready)
        self._memq_access.append(flight)

    def _complete_cache_accesses(self, now: int) -> None:
        """Mark accesses that completed by ``now`` DONE.  An entry the
        retire stage already moved on from ACCESSING leaves the list."""
        kept: List[InFlight] = []
        for flight in self._memq_access:
            if flight.mem_state is not MemState.ACCESSING:
                continue
            ready = flight.ready_at
            if ready is not None and ready <= now:
                flight.mem_state = MemState.DONE
            else:
                kept.append(flight)
        self._memq_access = kept

    def _forwarding_store(self, load: InFlight) -> Optional[InFlight]:
        """Youngest older cached store whose bytes fully cover the load."""
        assert load.address is not None
        result: Optional[InFlight] = None
        for other in self._memq:
            if other.seq >= load.seq:
                break
            if other.op.kind != "store" or other.attr is not PageAttr.CACHED:
                continue
            assert other.address is not None
            load_size = load.instr.size  # type: ignore[attr-defined]
            store_size = other.instr.size  # type: ignore[attr-defined]
            if (
                other.address <= load.address
                and load.address + load_size <= other.address + store_size
            ):
                result = other
        return result

    def _older_store_blocks(self, load: InFlight) -> bool:
        """Partial overlap with an older store: wait for it to commit."""
        assert load.address is not None
        load_size = load.instr.size  # type: ignore[attr-defined]
        for other in self._memq:
            if other.seq >= load.seq:
                break
            if not other.instr.is_store:
                continue
            assert other.address is not None
            other_size = other.instr.size  # type: ignore[attr-defined]
            if (
                other.address < load.address + load_size
                and load.address < other.address + other_size
            ):
                covered = (
                    other.address <= load.address
                    and load.address + load_size <= other.address + other_size
                )
                if not covered or other.attr is not PageAttr.CACHED:
                    return True
        return False

    def _mem_done(self, flight: InFlight, ready: int) -> None:
        flight.mem_state = MemState.DONE
        self._record_ready(flight, ready)

    # -- retire stage --------------------------------------------------------------------

    def _retire(self, now: int) -> None:
        assert self.context is not None
        rob = self._rob
        budget = self.config.retire_width
        while rob and budget > 0:
            head = rob[0]
            op = head.op
            if not op.retire(self, head, now):
                return
            if not op.is_mark:
                budget -= 1  # marks are free

    # Retire handlers: each decode record carries the one its kind and
    # route name (repro.cpu.decode._handlers).  A handler returns True
    # when the head retired and retirement may go on this cycle.

    def _retire_plain(self, head: InFlight, now: int) -> bool:
        """A computed result, a branch or a nop: retires once ready."""
        ready = head.ready_at
        if ready is None or ready > now:
            return False
        self._commit(head, now)
        return True

    def _retire_mark(self, head: InFlight, now: int) -> bool:
        assert self.context is not None
        label = head.instr.label  # type: ignore[attr-defined]
        self.context.marks[label] = now
        self.stats.mark(label, now)
        self._commit(head, now)
        return True

    def _retire_halt(self, head: InFlight, now: int) -> bool:
        assert self.context is not None
        self.context.halted = True
        self.context.pc = head.pc
        self._commit(head, now)
        return False

    def _retire_membar(self, head: InFlight, now: int) -> bool:
        if not self.unit.barrier_clear():
            return False
        self._commit(head, now)
        return True

    def _retire_store(self, head: InFlight, now: int) -> bool:
        """A cached store commits once its operands were timing-ready (its
        functional write happened at dispatch); an uncached one issues."""
        if head.attr is not PageAttr.CACHED:
            return self._retire_uncached_store(head, now)
        if head.mem_state is not MemState.DONE:
            return False
        assert head.address is not None
        if self.dcache is not None:
            return self._retire_cached_store_dcache(head, now)
        # The timing-plane cache access happens now.
        self.hierarchy.access_latency(head.address, is_write=True)
        self._commit(head, now)
        return True

    def _retire_load(self, head: InFlight, now: int) -> bool:
        if head.attr is PageAttr.CACHED:
            return self._retire_cached_load(head, now)
        return self._retire_uncached_load(head, now)

    def _retire_cached_load(self, head: InFlight, now: int) -> bool:
        """A cached load or load-linked retires once its access completed."""
        if head.mem_state is not MemState.DONE:
            return False
        ready = head.ready_at
        if ready is not None and ready > now:
            return False
        self._commit(head, now)
        return True

    def _retire_swap(self, head: InFlight, now: int) -> bool:
        if head.attr is PageAttr.CACHED:
            return self._retire_cached_swap(head, now)
        return self._retire_uncached_swap(head, now)

    def _retire_cached_store_dcache(self, head: InFlight, now: int) -> bool:
        """Commit a cached store through the non-blocking D-cache.

        A store hit retires after the hit latency; a store miss allocates
        an MSHR (write-allocate) and blocks retirement until the refill
        lands — the emergent store-miss cost the crossover experiment
        measures.  ``cache_issued`` guards against re-entering the cache
        on the retry polls while the miss is outstanding.
        """
        assert head.address is not None
        if not head.cache_issued:
            ready = self._cache_access(head.address, True, now)
            if ready is None:
                return False
            head.cache_issued = True
            self._record_ready(head, ready)
            self._cached_stores.bump()
        if head.ready_at is not None and head.ready_at > now:
            return False
        self._commit(head, now)
        return True

    def _retire_cached_swap(self, head: InFlight, now: int) -> bool:
        if head.mem_state is MemState.WAITING:
            if not head.timing_ready(now):
                return False
            assert head.address is not None
            ready = self._cache_access(head.address, True, now)
            if ready is None:
                return False
            self._start_access(head, ready)
            self._cached_swaps.bump()
            if self.events is not None:
                from repro.observability.events import LockAcquire

                assert self.context is not None
                self.events.publish(
                    LockAcquire(head.address, self.context.pid, self.core_id)
                )
            return False
        if head.mem_state is MemState.ACCESSING:
            assert head.ready_at is not None
            if head.ready_at > now:
                return False
            head.mem_state = MemState.DONE
        self._commit(head, now)
        return True

    def _retire_store_conditional(self, head: InFlight, now: int) -> bool:
        """Store-conditional at the head of the ROB.

        A failed SC (stale link) completes locally and immediately.  A
        successful one pays a cache access and — when the implementation
        broadcasts it (``sc_bus_transaction``) — a full bus round trip even
        on a hit, the extra locking overhead the paper's §4.3.2 discussion
        predicts for this mechanism.
        """
        if head.mem_state is MemState.WAITING:
            if not head.timing_ready(now):
                return False
            assert head.value is not None
            if head.value == 0:
                head.mem_state = MemState.DONE
                self._record_ready(head, now)
                self._commit(head, now)
                self._sc_failures.bump()
                return True
            assert head.address is not None
            ready = self._cache_access(head.address, True, now)
            if ready is None:
                return False
            self._start_access(head, ready)
            return False
        if head.mem_state is MemState.ACCESSING:
            assert head.ready_at is not None
            if head.ready_at > now:
                return False
            if self.config.sc_bus_transaction:
                if not self.fus.acquire("uncached"):
                    return False
                assert head.address is not None
                accepted = self.unit.issue_sync(
                    head.address, self._sync_resolver(head)
                )
                if accepted:
                    head.mem_state = MemState.ISSUED_UNCACHED
                return False
            head.mem_state = MemState.DONE
            self._commit(head, now)
            return True
        if head.mem_state is MemState.ISSUED_UNCACHED:
            return False
        self._commit(head, now)
        return True

    def _sync_resolver(self, head: InFlight):
        def resolve(_value: int, cycle: int) -> None:
            # The functional result (1) was known at dispatch; the bus
            # round trip only gates timing.
            self._record_ready(head, cycle)
            head.mem_state = MemState.DONE
            self.wake()

        return resolve

    def _clear_link_if_written(self, address: int) -> None:
        if self._link is None:
            return
        line = address - (address % self.hierarchy.config.line_size)
        if line == self._link:
            self._link = None

    # Uncached operations issue at the head of the ROB: in order,
    # non-speculatively, one per cycle through the uncached port.

    def _retire_uncached_store(self, head: InFlight, now: int) -> bool:
        """An uncached store or block store retires in the cycle the
        uncached unit accepts it (it waits at the head until then)."""
        if not head.timing_ready(now) or not self.fus.acquire("uncached"):
            return False
        assert self.context is not None
        assert head.address is not None and head.store_data is not None
        instr = head.instr
        if not self.unit.issue_store(
            head.address,
            instr.size,  # type: ignore[attr-defined]
            head.store_data,
            self.context.pid,
        ):
            self._uncached_store_stalls.bump()
            return False
        head.mem_state = MemState.DONE
        if self.trace is not None:
            self.trace.record(now, "uncached", head.seq, head.pc, instr)
        self._commit(head, now)
        self._uncached_stores.bump()
        return True

    def _retire_uncached_load(self, head: InFlight, now: int) -> bool:
        if head.mem_state is MemState.WAITING:
            assert head.address is not None
            if (
                head.timing_ready(now)
                and self.fus.acquire("uncached")
                and self.unit.issue_load(
                    head.address,
                    head.instr.size,  # type: ignore[attr-defined]
                    self._uncached_resolver(head),
                )
            ):
                head.mem_state = MemState.ISSUED_UNCACHED
            return False
        return self._retire_resolved(head, now)

    def _retire_uncached_swap(self, head: InFlight, now: int) -> bool:
        if head.mem_state is MemState.WAITING:
            assert self.context is not None
            assert head.address is not None and head.swap_expected is not None
            if (
                head.timing_ready(now)
                and self.fus.acquire("uncached")
                and self.unit.issue_swap(
                    head.address,
                    self.context.pid,
                    head.swap_expected,
                    self._uncached_resolver(head),
                )
            ):
                head.mem_state = MemState.ISSUED_UNCACHED
            return False
        return self._retire_resolved(head, now)

    def _retire_resolved(self, head: InFlight, now: int) -> bool:
        """An uncached load or swap the unit took retires once its value
        came back (DONE)."""
        if head.mem_state is MemState.ISSUED_UNCACHED:
            return False
        self._commit(head, now)
        return True

    def _uncached_resolver(self, head: InFlight):
        def resolve(value: int, cycle: int) -> None:
            self._set_value(head, value, ready=cycle)
            head.mem_state = MemState.DONE
            self.wake()

        return resolve

    def _commit(self, head: InFlight, now: int) -> None:
        context = self.context
        assert context is not None
        popped = self._rob.popleft()
        if popped is not head:
            raise SimulationError("retired an instruction out of order")
        op = head.op
        if self.trace is not None:
            self.trace.record(now, "retire", head.seq, head.pc, head.instr)
        if op.dest is not None:
            if not head.value_known:
                raise SimulationError(
                    f"retiring {head!r} without a result value"
                )
            assert head.value is not None
            writes = op.writes
            if writes is not None:
                self._registers[writes] = head.value & MASK64
                if self._spec_map.get(writes) is head:
                    del self._spec_map[writes]
        if op.route == ROUTE_MEMQ:
            self._memq.remove(head)
        if head.dep_list:
            # Dependents still read this record; it no longer reads its
            # producers, so a dependence chain is not kept alive.
            head.deps = {}
            head.dep_list = ()
        if op.is_branch and head.taken:
            target = op.target
            assert target is not None
            context.pc = target
        else:
            context.pc = head.pc + 1
        context.retired_instructions += 1
        self._last_progress = now
        self._n_retired.value += 1

    # -- precise interrupts ---------------------------------------------------------------

    def _log_undo(self, flight: InFlight, address: int, size: int) -> None:
        flight.undo = (address, self.hierarchy.backing.read_bytes(address, size))

    def _try_squash(self) -> bool:
        """Complete a pending interrupt by squashing unretired work.

        Returns True once the squash happened.  Waits (returns False) while
        the ROB head holds an uncached operation that already reached the
        device — that one must retire to preserve exactly-once semantics.
        """
        assert self.context is not None
        for flight in self._rob:
            if flight.mem_state is MemState.ISSUED_UNCACHED:
                return False
        if self._rob:
            # Resume at the oldest unretired instruction; undo the
            # dispatch-time functional writes of everything squashed.
            self.context.pc = self._rob[0].pc
            for flight in reversed(self._rob):
                if flight.undo is not None:
                    self.hierarchy.backing.write_bytes(*flight.undo)
            if self.trace is not None:
                for flight in self._rob:
                    self.trace.record(
                        self.now, "squash", flight.seq, flight.pc, flight.instr
                    )
            self._squashed.bump(len(self._rob))
            if self.events is not None:
                from repro.observability.events import PipelineSquash

                self.events.publish(PipelineSquash(len(self._rob), self.core_id))
        self._rob.clear()
        self._memq.clear()
        self._memq_wait.clear()
        self._memq_access.clear()
        self._issueq.clear()
        self._woken.clear()
        self._spec_map.clear()
        self._link = None
        self._interrupt_pending = False
        self._last_progress = self.now
        return True
