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

#: The longest spin period, in ticks, a probe compares (see Core._try_spin).
_LONGEST_PERIOD = 2


class _SpinProbe:
    """An open spin probe (see :meth:`Core._try_spin`): the loop, the
    first period length worth comparing, the relative state and ``_seq``
    before the first probed tick, the ledger, TLB hits and L1 hits of the
    ``ticks`` probed so far, and the counts the current tick is measured
    from."""

    __slots__ = (
        "loop",
        "first",
        "state",
        "seq",
        "ledger",
        "tlb_hits",
        "l1_hits",
        "ticks",
        "counts",
    )

    def __init__(self, loop: SpinLoop, first: int, state: tuple, seq: int) -> None:
        self.loop = loop
        self.first = first
        self.state = state
        self.seq = seq
        self.ledger: List[Tuple[Counter, int]] = []
        self.tlb_hits = 0
        self.l1_hits = 0
        self.ticks = 0
        self.counts: tuple = ()


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
        #: The counters bumped without a handle, so outside the journal
        #: (see _spin_probe); they move only with progress.
        self._progress_counters = (
            self._n_dispatched,
            self._n_issued,
            self._n_retired,
            self._n_branches,
        )
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
        # stages, until ``_sleep_until`` or until its uncached path changes
        # (the buffer's wake mark moves off ``_sleep_mark``).  One quiet
        # tick's counter increments, the ledger, are owed for every slept
        # cycle and paid at once by _settle, up to the cycle it is given;
        # ``_settled`` is the last cycle paid for.
        self._buffer = uncached_unit.buffer
        self._sleep_until = 0
        self._sleep_mark = 0
        self._sleep_ledger: List[Tuple[Counter, int]] = []
        self._sleep_mshr_stalls = 0
        self._sleep_tlb_hits = 0
        self._settled = 0
        #: no ROB entry's ``ready_at`` lies after this cycle (see _wake_cycle)
        self._horizon = 0
        self._progress_mark = 0
        self._armed = False
        # This core's own issues, part of the sleep trigger's progress:
        # the stats counters are shared by every core.
        self._issued = 0
        # A ``membar`` at the ROB head waits only for an empty buffer: its
        # sleep compares the buffer's empty mark when the wake mark moves.
        self._sleep_empty = 0
        self._sleep_l1_hits = 0
        # Spin sleeping (see _try_spin): while asleep in a spin loop,
        # ``_spin`` is one period's (seq shift, affine register addends,
        # length in cycles) and the pipeline holds the state after the
        # tick of ``_settled``.
        self._spin: Optional[Tuple[int, Dict[str, int], int]] = None
        #: 0, or the first period length the next tick's probe compares
        self._spin_armed = 0
        #: an open spin probe (see _spin_probe), or None
        self._probe: Optional[_SpinProbe] = None
        #: the word a spin probe or sleep watches (see _watch), or None
        self._watched: Optional[int] = None
        # ROB occupancy after the last two gate checks, the later last.
        self._spin_robs = (0, 0)
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
        self.wake()
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

    def request_drain(self) -> None:
        """Stop dispatching; the pipeline empties through retirement."""
        self.wake()
        self._drain_requested = True

    def wake(self) -> None:
        """End a sleep: something the stalled pipeline polls changed
        outside the bus, or something from outside is about to act on a
        spinning one (see :meth:`tick`); an open spin probe is dropped.

        Callers that change core state from outside (the scheduler
        parking a context, interrupts, value deliveries) or anything a
        spinning loop reads (a write to its watched word, an access to its
        watched L1 set) call this *before* the change: settling a spin
        sleep may run the loop's stages for the cycles of a partial
        period, and they must see what those cycles saw."""
        self._unwatch()
        self.settle()
        self._spin = None
        self._sleep_until = 0
        self._probe = None
        self._spin_armed = 0

    def settle(self) -> None:
        """Bring a sleeping core up to :attr:`now`, so a reader between
        ticks sees what ticking would have left: pay the ledger for the
        cycles slept since the last settle, and shift a spin sleep's
        pipeline by the whole periods slept and run its stages for the
        cycles of a partial period; the sleep goes on.  A no-op for an
        awake core."""
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
        self.wake()
        self._drain_requested = True
        self._interrupt_pending = True

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
        self.wake()
        self._link = value

    # -- main clock ----------------------------------------------------------------

    def tick(self, now: int) -> None:
        """Advance one CPU cycle.

        A *full* tick runs the pipeline stages (:meth:`_stages`).  A
        stalled or spinning core sleeps instead: a sleeping tick only
        moves :attr:`now`.

        A *quiet* tick dispatches, issues, retires and transitions
        nothing; it only bumps stall counters and looks pages up in the
        TLB.  After a quiet tick that was probed (its pipeline state
        recorded around it and its counter increments journaled), the
        core sleeps until the earliest cycle one of its own timers could
        change the outcome, owing that tick's increments and TLB hits for
        each cycle.  It wakes early when its uncached buffer's wake mark
        moves: the buffer stops being full or becomes empty, or the shared
        CSB frees a line buffer, the only ways the uncached side changes
        an answer it gave the retire stage.  A core whose ROB head is a
        ``membar`` waits for an empty buffer, so it wakes only when the
        buffer's empty mark moves.  It wakes too when :meth:`wake` is
        called: a value delivery, an interrupt, a drain request or a
        context change.

        A *spinning* core sleeps too (see :meth:`_try_spin`): after the k
        probed ticks (k = 1 or 2) of one period of a spin loop's steady
        state, it owes that period's counter increments, TLB hits and L1
        hits for each period until the first period that dispatches the
        loop's exit, or until :meth:`wake` is called.  A loop that reads
        a cached word watches it: a write that changes the word, or an
        access that could reorder the word's L1 set, wakes the core
        before it happens.

        What the slept cycles owe (the counter increments, and for a spin
        sleep the pipeline's shift by the periods slept and the stages of
        a partial period) is paid once, when the sleep ends or when
        :meth:`settle` is called.  Every simulated result is identical to
        ticking through.
        """
        self.now = now
        context = self.context
        if context is None or context.halted:
            return
        woke = False
        if self._sleep_until:
            if now < self._sleep_until:
                if self._buffer.wake_mark == self._sleep_mark or self._spin is not None:
                    return
                if (
                    self._rob[0].instr.is_membar
                    and self._buffer.empty_mark == self._sleep_empty
                ):
                    # The buffer left full without emptying: the membar at
                    # the head still waits.
                    self._sleep_mark = self._buffer.wake_mark
                    return
            # Woken by the uncached path or a timer: pay for the cycles
            # slept and probe at once (the stall often resumes right after
            # this tick).
            if self._watched is not None:
                self._unwatch()
            self._settle(now - 1)
            self._spin = None
            self._sleep_until = 0
            woke = self._armed = True
        if self._armed or self._spin_armed:
            journal = self.stats.journal = []
            quiet = self._quiet_probe(journal) if self._armed else None
            probe = self._spin_probe(now) if self._spin_armed else None
        else:
            journal = quiet = probe = None
        if self._stages(now):
            return
        if journal is not None:
            # A core this tick woke closed the journal when it paid for its
            # sleep (see _settle): the shared counts are not this tick's.
            clean = self.stats.journal is journal
            self.stats.journal = None
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
        # comparison; a busy tick with the ROB head in a spin loop checks
        # whether it is spinning once the ROB is as full as after one of
        # the last two such ticks.  Progress counts this core's own work:
        # a dispatch adds one to ``_seq`` and the ROB, a retirement or
        # squash takes from the ROB, an issue adds to ``_issued``.
        rob = self._rob
        progress = 2 * self._seq - len(rob) + self._issued
        if probe is not None:
            self._try_spin(now, probe, journal, clean)
        if progress != self._progress_mark:
            self._progress_mark = progress
            self._armed = woke
            if probe is None and rob and rob[0].op.spin is not None:
                occupancy = len(rob)
                earlier, last = self._spin_robs
                if now >= self._spin_retry and (
                    occupancy == last or occupancy == earlier
                ):
                    # Equal to the last: the period may be one tick.
                    if self._spinning():
                        self._spin_armed = 1 if occupancy == last else 2
                self._spin_robs = (last, occupancy)
        elif quiet is not None:
            self._armed = False
            if clean and not self._sleep_until:
                self._try_sleep(now, quiet)
        else:
            self._armed = bool(rob)

    def _stages(self, now: int) -> bool:
        """The pipeline's work for cycle ``now``: retire, issue, the memory
        queue, dispatch; True, with nothing after the retire stage run,
        when a pending interrupt squashed the pipeline instead (which
        closes the journal a probe opened).  A full tick runs it, and
        :meth:`_settle` runs it for the cycles of a partial period of a
        spin sleep."""
        self.fus.new_cycle()
        self._retire(now)
        if self._interrupt_pending and self._try_squash():
            self.stats.journal = None
            return True
        self._issue(now)
        self._memq_issue(now)
        if not self._drain_requested and not self._fetch_stopped:
            self._dispatch(now)
        return False

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

    def _quiet_probe(self, journal: List[Tuple[Counter, int]]) -> tuple:
        """What a probed tick is judged by: the pipeline state before it,
        the counter journal the tick opened for it, and the counts that
        live outside the collector, the D-cache's MSHR stall cycles and
        the TLB's hits and misses.

        The journal makes the ledger cost what the tick bumped, not the
        number of counters: every handle bump lands in it, and the four
        counters the stages bump directly (``_progress_counters``) move
        only in a tick that is not quiet.
        """
        mshr_stalls = self.dcache.mshr_stall_cycles if self.dcache else 0
        tlb = self.tlb
        return self._pipeline_state(), journal, mshr_stalls, tlb.hits, tlb.misses

    def _try_sleep(self, now: int, probe: tuple) -> None:
        """Fall asleep after a probed tick that turned out quiet.  A tick
        whose TLB lookup missed is not quiet: the page is cached now, so
        the next lookup would hit."""
        state, journal, mshr_stalls, tlb_hits, tlb_misses = probe
        tlb = self.tlb
        if (
            not self._rob
            or tlb.misses != tlb_misses
            or self._pipeline_state() != state
        ):
            return
        wake = self._wake_cycle(now)
        if wake <= now + 1:
            return
        self._sleep_ledger = journal
        self._sleep_mshr_stalls = (
            self.dcache.mshr_stall_cycles - mshr_stalls if self.dcache else 0
        )
        self._sleep_tlb_hits = tlb.hits - tlb_hits
        self._sleep_l1_hits = 0
        self._sleep_until = wake
        buffer = self._buffer
        self._sleep_mark = buffer.wake_mark
        self._sleep_empty = buffer.empty_mark
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
        dispatch point sit in one spin loop (decode's
        :class:`~repro.cpu.decode.SpinLoop`), so the issue queue, the
        parked and woken entries do too and the memory queue holds only
        the loop's reads; nothing stops dispatch; no pipeline trace is
        attached (its records interleave cores in cycle order).

        A loop that reads a word needs more: its reads in the memory
        queue (at least one) all read one address on cached space, no
        D-cache (its peers invalidate lines without a watch) and no event
        bus (the cached swap publishes ``LockAcquire``)."""
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
        if loop.word is not None:
            memq = self._memq
            if not memq or self.dcache is not None or self.events is not None:
                return False
            address = memq[0].address
            for flight in memq:
                if flight.attr is not PageAttr.CACHED or flight.address != address:
                    return False
        for flight in rob:
            if not head <= flight.pc <= branch:
                return False
        return True

    def _spin_state(self, cycle: int) -> tuple:
        """Everything a later tick reads of a spinning pipeline, relative:
        seqs to ``_seq``, cycles to ``cycle`` (the next tick's), and the
        loop's affine registers' values to the register's committed value.

        Every other register keeps its value every iteration (a reset
        register, see :class:`~repro.cpu.decode.SpinLoop`, or one the loop
        never writes), so its values, in flight and committed, enter as
        they are.  An operand whose producer has retired enters as its
        value, as one read at dispatch does: the pipeline reads nothing
        else of a retired record (its ready cycle has passed).  So do the
        memory-queue fields of the loop's reads
        (state, address, attribute, the value a swap writes and the bytes
        it overwrote, ``cache_issued``) and which of the two walk lists
        each is in.  ``InFlight.dispatch_cycle`` is left out (only
        dispatch reads it, of the entry it builds), and a ready cycle or
        ``stall_until`` hint that has passed reads as 0: the pipeline only
        compares them with the current cycle, so one that has passed
        reads the same however long ago.  The loop reads no other register
        and no flag stops dispatch (see :meth:`_spinning`).
        """
        assert self.context is not None
        seq = self._seq
        committed = self.context.registers.raw_values
        rob = self._rob
        loop = rob[0].op.spin if rob else None
        affine = () if loop is None else [reg for reg, _ in loop.steps]
        oldest = rob[0].seq if rob else seq + 1
        accessing = set(self._memq_access)
        waiting = set(self._memq_wait)
        entries = []
        for flight in rob:
            op = flight.op
            value = flight.value
            if value is not None and op.writes in affine:
                value = (value - committed[op.writes]) & MASK64
            src_vals = flight.src_vals
            deps = flight.deps
            operands: List[Any] = []
            for reg in op.sources:
                operand = src_vals.get(reg)
                producer = deps.get(reg)
                if producer is not None and producer.seq < oldest:
                    # Retired: only its value counts, as for a source
                    # read at dispatch.
                    if operand is None:
                        operand = producer.value
                    producer = None
                if operand is not None and reg in affine:
                    operand = (operand - committed[reg]) & MASK64
                if producer is None:
                    operands.append(operand)
                    continue
                known = producer.value
                if known is not None and reg in affine:
                    known = (known - committed[reg]) & MASK64
                at = producer.ready_at
                if at is not None:
                    at = at - cycle if at > cycle else 0
                operands.append((operand, producer.seq - seq, known, at))
            ready_at = flight.ready_at
            if ready_at is not None:
                ready_at = ready_at - cycle if ready_at > cycle else 0
            stall = flight.stall_until
            waiters = flight.waiters
            entries.append(
                (
                    flight.pc,
                    flight.seq - seq,
                    value,
                    flight.value_known,
                    flight.issued,
                    ready_at,
                    flight.taken,
                    stall - cycle if stall > cycle else 0,
                    operands,
                    None if waiters is None else [w.seq - seq for w in waiters],
                    None
                    if op.route != ROUTE_MEMQ
                    else (
                        flight.mem_state,
                        flight.address,
                        flight.attr,
                        flight.swap_expected,
                        flight.undo,
                        flight.cache_issued,
                        flight in accessing,
                        flight in waiting,
                    ),
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
            self._link,
            [] if loop is None else [committed[reg] for reg in loop.resets],
        )

    def _spin_probe(self, now: int) -> "_SpinProbe":
        """The open spin probe, with the counts the tick of ``now`` is
        measured from (:meth:`_spin_counts`).  Opening one records the
        state before the tick and ``_seq`` and, for a loop that reads a
        word, starts the watch (see :meth:`_watch`), so that a change to
        the word or its L1 set while the probe is open drops it."""
        probe = self._probe
        if probe is None:
            loop = self._rob[0].op.spin
            assert loop is not None
            probe = self._probe = _SpinProbe(
                loop, self._spin_armed, self._spin_state(now), self._seq
            )
            if loop.word is not None:
                self._watch(self._memq[0].address)
        probe.counts = self._spin_counts()
        return probe

    def _spin_counts(self) -> tuple:
        """What a probed tick's ledger is measured from, before it: the
        progress counters (bumped without a handle, so outside the
        journal) and the TLB's and the L1's hits and misses."""
        tlb, l1 = self.tlb, self.hierarchy.l1
        return (
            [counter.value for counter in self._progress_counters],
            tlb.hits,
            tlb.misses,
            l1.hits,
            l1.misses,
        )

    def _try_spin(
        self,
        now: int,
        probe: "_SpinProbe",
        journal: List[Tuple[Counter, int]],
        clean: bool,
    ) -> None:
        """After each tick of an open spin probe: add the tick's counter
        increments, TLB hits and L1 hits to the probe's ledger, and fall
        asleep once the ticks so far were one period of the loop's steady
        state: the state after them equals the state before the first,
        shifted (seqs by the instructions the period dispatched, cycles by
        its length, each affine register by what those iterations add).

        The probe is dropped, and the next waits two cycles, when the tick
        missed in the TLB or the L1, when a core it woke paid shared
        counters during it (``clean`` is False), when the watch fired (a
        write changed the word, the loop's own swaps included, or another
        line entered its L1 set), or when no period up to two ticks long
        matched.  So the period read the same bytes throughout and wrote
        back exactly the bytes it read, and each later period does the
        same until the word or the set changes, which wakes the core.

        The periods commute with the shift as long as every branch they
        dispatch is taken, because the loop body only adds constants to
        affine registers and gives reset ones the same values; so the
        core sleeps until the first cycle of the period that dispatches
        the exit (:meth:`_spin_exit`).  The watched line must be the most
        recently used of its L1 set, as the loop's own hits leave it.
        """
        if self._probe is not probe:  # a wake dropped it during the tick
            self._spin_retry = now + 2
            return
        self._spin_armed = 0
        progress, tlb_hits, tlb_misses, l1_hits, l1_misses = probe.counts
        tlb, l1 = self.tlb, self.hierarchy.l1
        if clean and tlb.misses == tlb_misses and l1.misses == l1_misses:
            ledger = probe.ledger
            ledger += journal
            ledger += [
                (counter, counter.value - value)
                for counter, value in zip(self._progress_counters, progress)
                if counter.value != value
            ]
            probe.tlb_hits += tlb.hits - tlb_hits
            probe.l1_hits += l1.hits - l1_hits
            probe.ticks += 1
            period = probe.ticks
            state = probe.state
            if (
                period < probe.first
                or len(self._rob) != len(state[0])
                or self._spec_pc != state[4]
                or self._seq == probe.seq
                or not self._spinning()
                or self._spin_state(now + 1) != state
            ):
                if period < _LONGEST_PERIOD:
                    self._spin_armed = probe.first
                    return  # the period may be longer: keep probing
            elif self._watched is None or l1.is_mru(self._watched):
                self._probe = None
                if self._sleep_spin(now, probe, period):
                    return
        self._probe = None
        self._unwatch()
        self._spin_retry = now + 2

    def _sleep_spin(self, now: int, probe: "_SpinProbe", period: int) -> bool:
        """Fall asleep after the probed ``period`` ticks up to ``now``, the
        watch kept; False when the exit is too close to bother."""
        loop = probe.loop
        # Equal states put dispatch back at the same pc, having dispatched
        # only loop instructions since: whole iterations, at least one.
        iterations = (self._seq - probe.seq) // (loop.branch - loop.head + 1)
        wake = self._spin_exit(now, loop, iterations, period)
        if wake <= now + 1:
            return False
        self._sleep_ledger = probe.ledger
        self._sleep_mshr_stalls = 0
        self._sleep_tlb_hits = probe.tlb_hits
        self._sleep_l1_hits = probe.l1_hits
        addends = {reg: (step * iterations) & MASK64 for reg, step in loop.steps}
        self._spin = (self._seq - probe.seq, addends, period)
        self._settled = now
        self._sleep_until = wake
        return True

    def _spin_exit(self, now: int, loop: SpinLoop, iterations: int, period: int) -> int:
        """The first cycle of the first period after ``now`` that
        dispatches the loop's exit, a ``brnz`` that sees its register at
        zero, when each ``period`` ticks dispatch ``iterations`` whole
        iterations (``_NEVER`` for ``ba``, for a ``brnz`` on a reset
        register, which stays taken while the watched word keeps its
        value, or when the register never reaches zero)."""
        cond = loop.cond
        if cond is None or not loop.to_branch:
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
        return now + ((j + iterations) // iterations - 1) * period + 1

    def _watch(self, address: int) -> None:
        """Watch the word a spin loop reads at ``address``: its 8 bytes in
        the backing store and its line's L1 set wake this core before they
        change (see :meth:`wake`)."""
        self._watched = address
        self.hierarchy.backing.watch(address & ~7, self)
        self.hierarchy.l1.watch(address, self)

    def _unwatch(self) -> None:
        address = self._watched
        if address is not None:
            self._watched = None
            self.hierarchy.backing.unwatch(address & ~7, self)
            self.hierarchy.l1.unwatch(address, self)

    def _settle(self, last: int) -> None:
        """Pay what the cycles slept after ``_settled`` up to ``last`` owe:
        what ticking them would have left.  A quiet sleep pays its ledger
        per cycle (:meth:`_pay`).  A spin sleep pays its ledger and shifts
        its pipeline (:meth:`_shift`) per whole period, then runs the
        stages of the cycles left over, a partial period, as ticking them
        would: nothing they read has changed since the sleep began, since
        the watch and every caller of :meth:`wake` wake the core first."""
        if not self._sleep_until or last <= self._settled:
            return
        # Paying moves counters every core shares: a probe open in another
        # core's tick (when that tick woke this core) must not count them.
        self.stats.journal = None
        cycles = last - self._settled
        self._settled = last
        self.slept_ticks += cycles
        spin = self._spin
        if spin is None:
            self._pay(cycles)
            return
        self.spun_ticks += cycles
        periods, left = divmod(cycles, spin[2])
        if periods:
            self._pay(periods)
            self._shift(periods)
        for cycle in range(last - left + 1, last + 1):
            self._stages(cycle)

    def _pay(self, times: int) -> None:
        """Re-apply the sleep ledger (and the D-cache's MSHR stall cycles
        and the TLB's and the L1's hits) ``times`` times, in one pass: once
        per slept cycle of a quiet sleep, once per slept period of a spin
        sleep."""
        for counter, amount in self._sleep_ledger:
            counter.value += amount * times
        if self._sleep_mshr_stalls:
            self.dcache.mshr_stall_cycles += self._sleep_mshr_stalls * times
        if self._sleep_tlb_hits:
            self.tlb.hits += self._sleep_tlb_hits * times
        if self._sleep_l1_hits:
            self.hierarchy.l1.hits += self._sleep_l1_hits * times

    def _shift(self, periods: int) -> None:
        """Shift a spin sleep's pipeline by ``periods`` periods.

        Every in-flight record moves its source values and stall cycle;
        it and every retired producer one still reads move their seq,
        value and ready cycle, each once.  So do ``_seq``, the watchdog's
        ``_last_progress``, the committed affine registers and
        ``retired_instructions``.  Reset registers, a read's memory-queue
        fields, producer references, waiters and ``_spec_map`` need no
        change; ``context.pc`` repeats every period.
        """
        spin = self._spin
        assert spin is not None and self.context is not None
        seqs = spin[0] * periods
        cycles = spin[2] * periods
        addends = {reg: (step * periods) & MASK64 for reg, step in spin[1].items()}
        records = set(self._rob)
        for flight in self._rob:
            records.update(flight.dep_list)
            if flight.src_vals and addends:
                flight.src_vals = {
                    reg: (value + addends.get(reg, 0)) & MASK64
                    for reg, value in flight.src_vals.items()
                }
            if flight.stall_until:
                flight.stall_until += cycles
        for flight in records:
            flight.seq += seqs
            writes = flight.op.writes
            if flight.value is not None and writes in addends:
                flight.value = (flight.value + addends[writes]) & MASK64
            if flight.ready_at is not None:
                flight.ready_at += cycles
        self._horizon += cycles
        self._seq += seqs
        self._last_progress += cycles
        registers = self.context.registers.raw_values
        for reg, addend in addends.items():
            registers[reg] = (registers[reg] + addend) & MASK64
        self.context.retired_instructions += seqs

    def next_event(self, now: int) -> Optional[int]:
        """Earliest cycle, from ``now`` on, at which this core must be
        ticked (the System's clock jump): None without a live context,
        ``now`` while awake, else the end of its sleep.  The wake mark
        needs no check here: it moves only inside the bus arbiter's tick
        (a grant that pops a buffer entry or a CSB burst, a load
        completing), which comes before the cores' ticks, so the core
        already woke in the cycle it moved."""
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
            "bus_in_flight": self.unit.bus.in_flight(),
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
            self.wake()
            self._record_ready(head, cycle)
            head.mem_state = MemState.DONE

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
            self.wake()
            self._set_value(head, value, ready=cycle)
            head.mem_state = MemState.DONE

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
