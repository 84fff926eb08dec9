"""Quiet-tick sleeping, spin sleeping, the clock jump, issue parking and
the memory-queue lists change nothing a simulation computes.

A stalled core sleeps instead of re-running its stages (see
:meth:`repro.cpu.core.Core.tick`): it re-applies one quiet tick's counter
increments and TLB hits each cycle until one of its timers could change
the outcome, its uncached buffer's wake mark moves (the buffer stops
being full or empties, or the shared CSB frees a line buffer), or the
scheduler or a value delivery wakes it.  A core spinning in a
register-only countdown loop sleeps through the loop's steady state the
same way and shifts its pipeline by the periods it slept when it wakes.
While every core sleeps or has no live context, the clock driver jumps to
the earliest cycle any component could act
(:meth:`repro.sim.system.System.advance`).  The issue stage parks an entry
whose producer has no ready cycle yet until that cycle is recorded.  The
memory-queue stage walks only the cached entries still waiting to execute
and the accesses in flight, not the uncached entries parked for the ROB
head.

Every run in the first sections executes seven times: as shipped; with the
jump disabled (``System._next_event`` monkeypatched to return the current
cycle); with the issue stage replaced by :func:`scanning_issue`, the
scanning issue stage kept verbatim as the reference; with the memory-queue
stage replaced by :func:`scanning_memq`, the stage that walks all of
``_memq``, kept verbatim; with the bus-wide wake mark (:data:`BUS_WIDE`:
every bus acceptance wakes every core), checking at every probed quiet
tick that the journaled ledger equals a scan of every counter
(:func:`scanning_ledger`, kept verbatim); with spin sleeping off
(``Core._spinning``, the spin trigger, monkeypatched to say no); and
with all of these off and the dispatch and retire stages replaced by the
chains the decode-bound handlers replaced (:data:`CHAINED`, kept
verbatim), along with the sleep bookkeeping the O(1) probe and the lazy
ledger replaced (:data:`PER_ENTRY`, kept verbatim).  The cycle count,
every counter, the TLB's hits and misses, the marks, the transaction
records, the metrics snapshot, the pipeline trace and each process's pc,
retired count and registers must agree exactly.

The last section runs cases as shipped, with :data:`PER_ENTRY` and with
:data:`BUS_WIDE`, sleeping on: at every probed quiet tick equal O(1)
probe states must come with equal per-entry snapshots and the journal
must hold the scanned ledger, the results must be equal, and each core's
``slept_ticks`` and ``spun_ticks``, the jumped cycles and a
``DeadlockError``'s snapshot must equal the per-tick ledger's.

Those runs attach a pipeline trace, which turns spin sleeping off.  The
spinning-core section therefore runs with the trace off, each case twice:
with spin sleeping off and as shipped, checking every spin sleep's ledger
against the scanned one.
"""

from __future__ import annotations

import io
from typing import Any, Dict, List, Tuple

import pytest

from repro.common.config import (
    CoreConfig,
    MemoryConfig,
    MemoryHierarchyConfig,
    SamplingConfig,
    SystemConfig,
)
from repro.common.errors import DeadlockError, SimulationError
from repro.common.stats import Counter
from repro.cpu.core import Core
from repro.cpu.decode import ROUTE_ISSUE, ROUTE_ISSUED, ROUTE_MEMQ, ROUTE_UNTIMED
from repro.cpu.inflight import InFlight, MemState
from repro.devices import nic
from repro.devices.link import Link
from repro.devices.ring import DescriptorRing
from repro.devices.sink import BurstSink
from repro.evaluation import crossover
from repro.evaluation.rtt import _build_node
from repro.evaluation.runner import SweepRunner, TraceJob
from repro.evaluation.smp_contention import smp_contention_system
from repro.faults.config import FaultConfig
from repro.isa.assembler import assemble
from repro.isa import semantics
from repro.isa.instructions import (
    BLOCK_STORE_REGS,
    FU_FP,
    StoreConditionalInstruction,
    StoreInstruction,
    SwapInstruction,
)
from repro.isa.registers import MASK64
from repro.memory.layout import IO_COMBINING_BASE, IO_UNCACHED_BASE, PageAttr, Region
from repro.observability import JsonlSink
from repro.sim.cluster import Cluster
from repro.sim.sampling import run_sampled
from repro.sim.system import System
from repro.uncached.buffer import UncachedBuffer
from repro.workloads.contention import contending_csb_kernel
from repro.workloads.lockbench import DEFAULT_LOCK_ADDR
from repro.workloads.messaging import dma_send_kernel, pio_send_kernel
from repro.workloads.pingpong import ping_kernel, pong_kernel
from repro.workloads.random_programs import generate_program, generate_spin_program
from repro.workloads.spec import TraceWorkload
from repro.workloads.storebw import store_kernel_uncached
from repro.workloads.traces.compile import ring_region
from repro.workloads.traces.replay import TraceReplay

from tests.conftest import (
    make_config,
    registry_targets,
    ring_state,
    run_signature,
)

_TARGETS = registry_targets()

#: Kernels that poll a device register and never halt on a bare system:
#: they run a fixed window, so the comparison also reads counters while a
#: core may be asleep.
POLLING_PREFIXES = ("ping-", "pong-", "dma-send-")
POLLING_WINDOW = 20_000
MAX_CYCLES = 5_000_000
#: A second core's uncached page, apart from the default store stream's.
OTHER_PAGE = IO_UNCACHED_BASE + 0x10000


def _never_sleep(self, now, probe):
    """Stand-in for ``Core._try_sleep``: the core ticks through."""


def _never_spinning(self):
    """Stand-in for ``Core._spinning``: a spinning core is never probed
    and ticks through."""


def _never_jump(self, cycle, limit):
    """Stand-in for ``System._next_event``: the clock never jumps."""
    return cycle


# -- the bookkeeping the O(1) probe and the lazy ledger replaced -----------------
#
# Kept verbatim as references: the quiet probe's per-entry memory-queue
# snapshot, the wake cycle's ROB walk on every sleep, and the per-tick
# ledger (each sleeping tick, and each jumped span, re-applied the ledger
# as it passed).  :data:`PER_ENTRY` patches them in.


def snapshot_pipeline_state(self) -> tuple:
    """Everything a tick can change besides stall counters.

    Dispatch, issue and retirement move the first three fields (and
    with them every undo record); every other transition (cache
    access, store commit readiness, uncached issue, atomics at the
    head) is a memory-queue entry changing state.  Parking and merging
    woken entries move the issue-queue length, and a producer that
    wakes parked entries changes one of the above.
    """
    return (
        self._seq,
        self._issued,
        len(self._rob),
        len(self._issueq),
        self._last_progress,
        self._interrupt_pending,
        self._drain_requested,
        self._fetch_stopped,
        self._link,
        [
            (f.mem_state, f.ready_at, f.value_known, f.cache_issued)
            for f in self._memq
        ],
    )


def walking_wake_cycle(self, now: int) -> int:
    """Earliest cycle after ``now`` at which a timer the pipeline
    compares against could flip a decision.

    That is the watchdog horizon, the future ``ready_at`` of ROB
    entries and, with the D-cache on, the next MSHR fill.  Producer
    ready cycles, issue-queue ``stall_until`` hints and parked entries
    need no scan of their own: a retired producer's result was ready by
    its retirement, and a producer still in flight is a ROB entry.
    """
    wake = self._last_progress + 50_001  # the no-progress watchdog
    for flight in self._rob:
        ready = flight.ready_at
        if ready is not None and now < ready < wake:
            wake = ready
    if self.dcache is not None:
        fill = self.dcache.next_fill(now)
        if fill is not None and fill < wake:
            wake = fill
    return wake


def per_tick_skip(self, cycles: int, last: int) -> None:
    """Stand in for ``cycles`` sleeping ticks ending at cycle ``last``
    (one from :meth:`tick`, or a span the System jumped over while
    :meth:`next_event` allowed it): re-apply the sleep ledger once
    per cycle."""
    self.now = last
    context = self.context
    if context is None or context.halted:
        return
    for counter, amount in self._sleep_ledger:
        counter.value += amount * cycles
    if self._sleep_mshr_stalls:
        self.dcache.mshr_stall_cycles += self._sleep_mshr_stalls * cycles
    if self._sleep_tlb_hits:
        self.tlb.hits += self._sleep_tlb_hits * cycles
    self.slept_ticks += cycles


_shipped_tick = Core.tick
_shipped_jump = System._skip


def _paid_per_tick(self, cycles):
    """Stand-in for ``Core._pay``: :func:`per_tick_skip` paid each slept
    cycle as it passed."""


def per_tick_ledger_tick(self, now):
    """``Core.tick`` with the per-tick ledger: a sleeping tick pays its
    cycle (:func:`per_tick_skip`)."""
    context = self.context
    sleeping = (
        context is not None
        and not context.halted
        and self._sleep_until
        and now < self._sleep_until
        and (self._buffer.wake_mark == self._sleep_mark or self._spin is not None)
    )
    _shipped_tick(self, now)
    if sleeping:
        per_tick_skip(self, 1, now)


def per_tick_ledger_jump(self, cycle, target, *lists):
    """``System._skip`` with the per-tick ledger: every core pays the
    jumped span first (:func:`per_tick_skip`)."""
    for core in self.cores:
        per_tick_skip(core, target - cycle, target - 1)
    return _shipped_jump(self, cycle, target, *lists)


#: (owner, name) -> the reference patched in for it.
PER_ENTRY = {
    (Core, "_pipeline_state"): snapshot_pipeline_state,
    (Core, "_wake_cycle"): walking_wake_cycle,
    (Core, "_pay"): _paid_per_tick,
    (Core, "tick"): per_tick_ledger_tick,
    (System, "_skip"): per_tick_ledger_jump,
}


# -- the wake mark and the ledger the precise wake rule and the journal replaced --
#
# Kept as references: a sleeping core used to wake on every transaction
# the bus accepted, from any initiator (``SystemBus.accepted`` was the
# mark), and each probe read every live counter before and after the
# probed tick (``scanning_counts`` and ``scanning_ledger``, verbatim).
# :data:`BUS_WIDE` patches the old mark in: each buffer's wake mark (an
# instance attribute, hence ``raising=False``) reads the bus's acceptance
# count, and the shipped code's own moves of it are dropped.


#: (owner, name) -> the reference patched in for it.
BUS_WIDE = {
    (UncachedBuffer, "wake_mark"): property(
        lambda self: self.bus.accepted, lambda self, value: None
    ),
}


def scanning_counts(self) -> List[int]:
    """Every counter's value, in the collector's creation order."""
    return [counter.value for counter in self.stats.live_counters()]


def scanning_ledger(self, before: List[int]) -> List[Tuple[Counter, int]]:
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


def _totals(ledger) -> Dict[str, int]:
    """A ledger as counter name -> increment, zero increments left out (a
    journal lists a counter once per bump)."""
    totals: Dict[str, int] = {}
    for counter, amount in ledger:
        totals[counter.name] = totals.get(counter.name, 0) + amount
    return {name: amount for name, amount in totals.items() if amount}


def scanning_issue(self, now: int) -> None:
    """The issue stage before parking, verbatim: an entry whose producer
    has no ready cycle yet is rescanned every cycle."""
    queue = self._issueq
    if not queue:
        return
    kept: List[InFlight] = []
    for flight in queue:
        # Producers' ready cycles never move earlier once recorded, so a
        # failed dependency check yields a cycle before which re-checking
        # is pointless (0 = a producer's timing is still unknown).
        if flight.stall_until > now:
            kept.append(flight)
            continue
        wait = 0
        blocked = False
        for producer in flight.dep_list:
            cycle = producer.ready_at
            if cycle is None:
                blocked = True
                wait = 0
                break
            if cycle > now:
                blocked = True
                if cycle > wait:
                    wait = cycle
        if blocked:
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
        if not flight.value_known and instr.destination() is not None:
            if not flight.operands_known():
                raise SimulationError(
                    f"issued {instr!r} with unknown operand values"
                )
            self._compute_value(flight)
        ready = now + latency
        flight.ready_at = ready
        if self.trace is not None:
            self.trace.record(now, "issue", flight.seq, flight.pc, instr)
        self._n_issued.value += 1
    self._issueq = kept


def scanning_memq(self, now: int) -> None:
    """The memory-queue stage before the wait and in-flight lists,
    verbatim: every entry of ``_memq`` is walked every awake cycle, the
    uncached ones parked for the ROB head included."""
    if not self._memq:
        return
    for flight in self._memq:
        instr = flight.instr
        if flight.mem_state is not MemState.WAITING:
            continue
        if flight.attr is not PageAttr.CACHED:
            continue  # uncached ops wait for the head of the ROB
        if isinstance(instr, (SwapInstruction, StoreConditionalInstruction)):
            continue  # atomics execute at the head of the ROB
        if isinstance(instr, StoreInstruction):
            # Stores are ready to commit once operands are timing-ready.
            if flight.timing_ready(now):
                self._mem_done(flight, now)
            continue
        # Cached load.
        if not flight.timing_ready(now):
            continue
        forward_from = self._forwarding_store(flight)
        if forward_from is not None:
            if forward_from.timing_ready(now):
                self._mem_done(flight, now + 1)
            continue
        if self._older_store_blocks(flight):
            continue
        assert flight.address is not None
        if self.dcache is not None:
            # Non-blocking cache: a primary miss allocates an MSHR and
            # the load sleeps until the refill's precomputed arrival; a
            # capacity stall (all MSHRs busy) retries next cycle before
            # consuming a cache port.
            if not self.dcache.can_accept(flight.address, now):
                continue
            if not self.fus.acquire("cache"):
                continue
            ready = self.dcache.access(flight.address, False, now)
        else:
            if not self.fus.acquire("cache"):
                continue
            latency = self.hierarchy.access_latency(
                flight.address, is_write=False
            )
            ready = now + latency
        flight.mem_state = MemState.ACCESSING
        self._record_ready(flight, ready)
        if self.trace is not None:
            self.trace.record(now, "cache", flight.seq, flight.pc, instr)
        self.stats.bump("core.cached_loads")
    scanning_complete_cache_accesses(self, now)


def scanning_complete_cache_accesses(self, now: int) -> None:
    """``Core._complete_cache_accesses`` before the in-flight list,
    verbatim: it marks every completed ACCESSING entry DONE, a cached
    swap or store-conditional the retire stage started included."""
    for flight in self._memq:
        if (
            flight.mem_state is MemState.ACCESSING
            and flight.ready_at is not None
            and flight.ready_at <= now
        ):
            flight.mem_state = MemState.DONE


# The dispatch and retire stages before decode bound each record's
# dispatch effect and retire handler, verbatim: dispatch applies effects
# through ``_apply_dispatch_effects`` and the kind chains of
# ``_prepare_memop`` and ``_compute_value``; retirement walks the
# ``is_mark``/``is_halt``/``is_membar``/``is_mem`` ladder into
# ``_retire_memop`` and ``_retire_uncached``.  CHAINED patches them onto
# Core under their old names, so their calls to one another resolve.


def chained_dispatch(self, now: int) -> None:
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
    registers = self.context.registers.raw_values
    trace = self.trace
    budget = config.dispatch_width
    while budget > 0:
        if len(rob) >= rob_entries:
            self.stats.bump("core.rob_full_stalls")
            return
        pc = self._spec_pc
        if pc >= len(ops):
            raise SimulationError(f"fetch ran past the program end at pc={pc}")
        op = ops[pc]
        route = op.route
        if route == ROUTE_MEMQ and len(memq) >= memq_entries:
            self.stats.bump("core.memq_full_stalls")
            return
        # Source operands: known values into src_vals, in-flight
        # producers into deps.  A branch condition or memory operand
        # whose value is not yet known stalls the frontend.
        src_vals: Dict[str, int] = {}
        deps: Dict[str, InFlight] = {}
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
                self.stats.bump("core.frontend_value_stalls")
                return
        flight = InFlight(self._next_seq(), op, pc, now, src_vals, deps)
        self._apply_dispatch_effects(flight)
        if trace is not None:
            trace.record(now, "dispatch", flight.seq, pc, op.instr)
        if not op.is_branch:
            self._spec_pc = pc + 1
        rob.append(flight)
        if route == ROUTE_MEMQ:
            memq.append(flight)
            if flight.attr is PageAttr.CACHED and not op.atomic:
                self._memq_wait.append(flight)
        elif route == ROUTE_ISSUE:
            self._issueq.append(flight)
        elif route == ROUTE_ISSUED:
            flight.issued = True  # nothing to issue (no FU class)
        if op.is_halt:
            self._fetch_stopped = True
            return
        if not op.is_mark:
            budget -= 1
        self._n_dispatched.value += 1


def chained_apply_dispatch_effects(self, flight: InFlight) -> None:
    """Functional-first execution at dispatch, where possible."""
    op = flight.op
    if op.is_branch:
        self._resolve_branch(flight)
        return
    if op.route == ROUTE_MEMQ:
        self._prepare_memop(flight)
    elif op.compute is not None:
        if flight.operands_known():
            self._compute_value(flight)
    elif op.route == ROUTE_UNTIMED:
        # No result, no functional unit: timing-ready immediately.
        self._record_ready(flight, flight.dispatch_cycle)
    if op.writes is not None:
        self._spec_map[op.writes] = flight


def chained_resolve_branch(self, flight: InFlight) -> None:
    instr: Any = flight.instr  # a BranchInstruction (decoded kind)
    if instr.op in ("brz", "brnz"):
        taken = semantics.branch_taken(
            instr.op, reg_value=flight.operand(instr.rs1)
        )
    elif instr.op == "ba":
        taken = True
    else:
        taken = semantics.branch_taken(
            instr.op, cc=flight.operand("icc")
        )
    flight.taken = taken
    if taken:
        target = flight.op.target
        assert target is not None
        self._spec_pc = target
    else:
        self._spec_pc = flight.pc + 1
    if not self.config.perfect_branch_prediction:
        # Sensitivity knob: charge a flat redirect penalty per taken
        # branch by delaying the branch's readiness.
        flight.ready_at = None
    self._n_branches.value += 1


def chained_prepare_memop(self, flight: InFlight) -> None:
    """Compute the address, classify by page attribute, and apply
    functional effects for cached operations."""
    instr: Any = flight.instr  # the class the decoded kind names
    base = flight.operand(instr.base)
    offset = instr.offset
    if isinstance(offset, str):
        offset_value = flight.operand(offset)
    else:
        offset_value = offset
    address = (base + offset_value) & MASK64
    size = instr.size
    if address % size:
        raise SimulationError(
            f"unaligned {size}-byte access at {address:#x} (pc={flight.pc})"
        )
    flight.address = address
    flight.attr = self.tlb.attribute_of(address)
    kind = flight.op.kind
    if kind == "swap":
        flight.swap_expected = flight.operand(instr.rd)
        if flight.attr is PageAttr.CACHED:
            self._log_undo(flight, address, 8)
            old = self.hierarchy.read(address, 8)
            self.hierarchy.write(address, flight.swap_expected, 8)
            self._set_value(flight, old, ready=None)
            self._clear_link_if_written(address)
        # Uncached swap results resolve through the uncached unit.
    elif kind == "ll":
        if flight.attr is not PageAttr.CACHED:
            raise SimulationError(
                f"load-linked requires cached space, not {address:#x}"
            )
        self._set_value(flight, self.hierarchy.read(address, 8), ready=None)
        self._link = address - (address % self.hierarchy.config.line_size)
    elif kind == "sc":
        if flight.attr is not PageAttr.CACHED:
            raise SimulationError(
                f"store-conditional requires cached space, not {address:#x}"
            )
        line = address - (address % self.hierarchy.config.line_size)
        if self._link == line:
            flight.store_data = flight.operand(instr.rs)
            self._log_undo(flight, address, 8)
            self.hierarchy.write(address, flight.store_data, 8)
            self._set_value(flight, 1, ready=None)
        else:
            self._set_value(flight, 0, ready=None)
        self._link = None  # an SC always consumes the link
    elif kind == "load":
        if flight.attr is PageAttr.CACHED:
            self._set_value(flight, self.hierarchy.read(address, size), ready=None)
    elif kind == "blockstore":
        if flight.attr is PageAttr.CACHED:
            raise SimulationError(
                "block stores bypass the cache hierarchy; target "
                f"uncached space, not {address:#x}"
            )
        packed = 0
        for reg in BLOCK_STORE_REGS:
            packed = (packed << 64) | flight.operand(reg)
        flight.store_data = packed
    elif kind == "store":
        flight.store_data = flight.operand(instr.rs)
        if flight.attr is PageAttr.CACHED:
            self._log_undo(flight, address, size)
            self.hierarchy.write(address, flight.store_data, size)
            self._clear_link_if_written(address)


def chained_compute_value(self, flight: InFlight) -> None:
    """Functional execution of ALU-class instructions."""
    instr: Any = flight.instr  # the class the decoded kind names
    kind = flight.op.kind
    if kind == "set":
        value = instr.value & MASK64
    elif kind == "cmp":
        op2 = (
            flight.operand(instr.operand2)
            if isinstance(instr.operand2, str)
            else instr.operand2
        )
        value = semantics.compare(flight.operand(instr.rs1), op2)
    elif kind == "alu":
        op2 = (
            flight.operand(instr.operand2)
            if isinstance(instr.operand2, str)
            else instr.operand2
        )
        rs1 = flight.operand(instr.rs1)
        if instr.fu == FU_FP:
            value = semantics.fp_alu(instr.op, rs1, op2)
        else:
            value = semantics.alu(instr.op, rs1, op2)
    else:
        raise SimulationError(f"cannot compute value for {instr!r}")
    self._set_value(flight, value, ready=None)


def chained_next_seq(self) -> int:
    self._seq += 1
    return self._seq


def chained_retire(self, now: int) -> None:
    assert self.context is not None
    budget = self.config.retire_width
    while self._rob and budget > 0:
        head = self._rob[0]
        instr = head.instr
        if instr.is_mark:
            self.context.marks[instr.label] = now  # type: ignore[attr-defined]
            self.stats.mark(instr.label, now)  # type: ignore[attr-defined]
            self._commit(head, now)
            continue  # marks are free
        if instr.is_halt:
            self.context.halted = True
            self.context.pc = head.pc
            self._commit(head, now)
            return
        if instr.is_membar:
            if not self.unit.barrier_clear():
                return
            self._commit(head, now)
            budget -= 1
            continue
        if instr.is_mem:
            if not self._retire_memop(head, now):
                return
            budget -= 1
            continue
        if head.ready_at is None or head.ready_at > now:
            return
        self._commit(head, now)
        budget -= 1


def chained_retire_memop(self, head: InFlight, now: int) -> bool:
    """Handle a memory operation at the head of the ROB.  Returns True
    when it retired this cycle."""
    kind = head.op.kind
    if head.attr is PageAttr.CACHED:
        if kind == "swap":
            return self._retire_cached_swap(head, now)
        if kind == "sc":
            return self._retire_store_conditional(head, now)
        if kind == "store":
            if head.mem_state is not MemState.DONE:
                return False
            assert head.address is not None
            if self.dcache is not None:
                return self._retire_cached_store_dcache(head, now)
            # Commit: the timing-plane cache access happens now; the
            # functional write already happened at dispatch.
            self.hierarchy.access_latency(head.address, is_write=True)
            self._commit(head, now)
            return True
        # Cached load: retires once its access completed.
        if head.mem_state is not MemState.DONE or (
            head.ready_at is not None and head.ready_at > now
        ):
            return False
        self._commit(head, now)
        return True
    return self._retire_uncached(head, now)


def chained_retire_uncached(self, head: InFlight, now: int) -> bool:
    """Uncached operations issue here: in order, non-speculatively, one
    per cycle through the uncached port."""
    assert self.context is not None
    instr: Any = head.instr  # the class the decoded kind names
    kind = head.op.kind
    if head.mem_state is MemState.WAITING:
        if not head.timing_ready(now):
            return False
        if not self.fus.acquire("uncached"):
            return False
        if kind == "swap":
            assert head.address is not None and head.swap_expected is not None
            accepted = self.unit.issue_swap(
                head.address,
                self.context.pid,
                head.swap_expected,
                self._uncached_resolver(head),
            )
            if accepted:
                head.mem_state = MemState.ISSUED_UNCACHED
            return False
        if kind == "store" or kind == "blockstore":
            assert head.address is not None and head.store_data is not None
            accepted = self.unit.issue_store(
                head.address,
                instr.size,
                head.store_data,
                self.context.pid,
            )
            if not accepted:
                self.stats.bump("core.uncached_store_stalls")
                return False
            head.mem_state = MemState.DONE
            if self.trace is not None:
                self.trace.record(now, "uncached", head.seq, head.pc, instr)
            self._commit(head, now)
            self.stats.bump("core.uncached_stores")
            return True
        # Uncached load.
        assert head.address is not None
        accepted = self.unit.issue_load(
            head.address,
            instr.size,
            self._uncached_resolver(head),
        )
        if accepted:
            head.mem_state = MemState.ISSUED_UNCACHED
        return False
    if head.mem_state is MemState.ISSUED_UNCACHED:
        return False  # waiting for the value to come back
    # DONE: the value resolved; retire it.
    self._commit(head, now)
    return True


#: The reference chains, by the Core attribute each replaces or restores.
CHAINED = {
    "_dispatch": chained_dispatch,
    "_apply_dispatch_effects": chained_apply_dispatch_effects,
    "_resolve_branch": chained_resolve_branch,
    "_prepare_memop": chained_prepare_memop,
    "_compute_value": chained_compute_value,
    "_next_seq": chained_next_seq,
    "_retire": chained_retire,
    "_retire_memop": chained_retire_memop,
    "_retire_uncached": chained_retire_uncached,
}


def _slept(systems):
    return sum(core.slept_ticks for system in systems for core in system.cores)


def _jumped(systems):
    return sum(system.jumped_cycles for system in systems)


def _parked(systems):
    return sum(core.parked_entries for system in systems for core in system.cores)


def _spun(systems):
    return sum(core.spun_ticks for system in systems for core in system.cores)


def _processes(system):
    """Each process's architectural state: pid, pc, retired count, halted
    and registers."""
    return [
        (
            process.pid,
            process.pc,
            process.retired_instructions,
            process.halted,
            process.registers.snapshot(),
        )
        for process in system.scheduler.processes
    ]


def _signature(system):
    signature = run_signature(system)
    signature["processes"] = _processes(system)
    return signature


def _both(monkeypatch, run):
    """``run()`` as shipped and against six references.

    ``run`` returns ``(signature, systems)``.  The references are the
    shipped code with the clock jump off, the shipped code with the
    scanning issue stage, the shipped code with the scanning memory-queue
    stage, the shipped code with the bus-wide wake mark
    (:data:`BUS_WIDE`, its ledgers checked against scanned ones), the
    shipped code with spin sleeping off, and a run with
    sleeping, spinning, the jump, parking and the memory-queue lists all
    off, the chained dispatch and retire stages (:data:`CHAINED`) in
    place of the decode-bound handlers and the replaced sleep
    bookkeeping (:data:`PER_ENTRY`); the first five must equal the
    shipped run.  The spin-off reference runs only when a system has no
    pipeline trace: a trace turns spin sleeping off, which makes that
    run the shipped one.  The result is the all-off signature, the
    shipped one and the shipped run's systems.
    """
    with monkeypatch.context() as patch:
        patch.setattr(Core, "_try_sleep", _never_sleep)
        patch.setattr(Core, "_spinning", _never_spinning)
        patch.setattr(System, "_next_event", _never_jump)
        patch.setattr(Core, "_issue", scanning_issue)
        patch.setattr(Core, "_memq_issue", scanning_memq)
        for name, reference in CHAINED.items():
            patch.setattr(Core, name, reference, raising=False)
        for (owner, name), reference in PER_ENTRY.items():
            patch.setattr(owner, name, reference)
        awake, awake_systems = run()
    assert _slept(awake_systems) == _jumped(awake_systems) == 0
    assert _parked(awake_systems) == 0
    with monkeypatch.context() as patch:
        patch.setattr(System, "_next_event", _never_jump)
        ticked, ticked_systems = run()
    assert _jumped(ticked_systems) == 0
    with monkeypatch.context() as patch:
        patch.setattr(Core, "_issue", scanning_issue)
        scanned, scanned_systems = run()
    assert _parked(scanned_systems) == 0
    with monkeypatch.context() as patch:
        patch.setattr(Core, "_memq_issue", scanning_memq)
        memq_scanned, _ = run()
    asleep, systems = run()
    assert ticked == asleep
    assert scanned == asleep
    assert memq_scanned == asleep
    assert _bus_wide(monkeypatch, run) == asleep
    if any(system.trace is None for system in systems):
        with monkeypatch.context() as patch:
            patch.setattr(Core, "_spinning", _never_spinning)
            unspun, unspun_systems = run()
        assert _spun(unspun_systems) == 0
        assert unspun == asleep
    return awake, asleep, systems


def _program_run(source, config, window=None, max_cycles=MAX_CYCLES):
    def run():
        system = System(config)
        system.add_process(assemble(source, name="sleep"))
        if window is None:
            system.run(max_cycles=max_cycles)
        else:
            system.advance(until=window)
        return _signature(system), [system]

    return run


# -- every registry target and the random-program corpus ------------------------


@pytest.mark.parametrize("name", sorted(_TARGETS))
def test_registry_target_identical_with_sleeping(monkeypatch, name):
    target = _TARGETS[name]
    config = make_config(line_size=target.context.line_size, trace=True)
    window = POLLING_WINDOW if name.startswith(POLLING_PREFIXES) else None
    awake, asleep, _ = _both(monkeypatch, _program_run(target.source, config, window))
    assert asleep == awake


@pytest.mark.parametrize("seed", range(50))
def test_random_program_identical_with_sleeping(monkeypatch, seed):
    run = _program_run(generate_program(seed), make_config(trace=True))
    awake, asleep, _ = _both(monkeypatch, run)
    assert asleep == awake


def test_sleeping_happens_on_a_bus_bound_store_stream(monkeypatch):
    # Figure 3e's regime: uncached stores back up behind a bus clocked 6x
    # slower than the core, so most cycles are quiet.
    config = make_config(cpu_ratio=6, line_size=64, trace=True)
    run = _program_run(store_kernel_uncached(1024), config)
    awake, asleep, systems = _both(monkeypatch, run)
    assert asleep == awake
    assert _slept(systems) > awake["cycle"] // 2
    assert _jumped(systems) > 0
    assert awake["stats"]["uncached.full_stalls"] > 0


def test_memq_stage_walks_only_entries_that_can_act(monkeypatch):
    # The same store stream fills the memory queue with uncached stores
    # that issue only at the ROB head: the memory-queue stage's wait list
    # stays shorter than the queue it used to scan.
    walked = []
    shipped = Core._memq_issue

    def counting(self, now):
        walked.append((len(self._memq_wait), len(self._memq)))
        shipped(self, now)

    monkeypatch.setattr(Core, "_memq_issue", counting)
    config = make_config(cpu_ratio=6, line_size=64)
    signature, _ = _program_run(store_kernel_uncached(1024), config)()
    assert signature["stats"]["core.memq_full_stalls"] > 0
    assert max(queue for _, queue in walked) == config.core.memq_entries
    assert sum(wait for wait, _ in walked) < sum(queue for _, queue in walked)


def _sc_behind_a_full_uncached_buffer():
    """A store-conditional whose cache access completes while twelve
    uncached stores keep the 8-entry uncached buffer full."""
    stores = [f"stx %l0, [%o1+{k * 64}]" for k in range(12)]
    return "\n".join(
        [
            f"set {IO_UNCACHED_BASE}, %o1",
            f"set {DEFAULT_LOCK_ADDR}, %o2",
            "ldx [%o2], %o5",  # warm the line, so the SC's access hits
            *stores,
            "ll [%o2], %o3",
            "add %o3, 1, %o3",
            "sc %o3, [%o2], %o4",
            "halt",
        ]
    )


def test_store_conditional_access_completed_by_the_memq_stage(monkeypatch):
    # The SC's bus sync is refused in the cycle its access completes, and
    # the memory-queue stage marks the access DONE that same cycle: the
    # SC joined the in-flight list when the retire stage started it, so
    # it commits without the sync, as with the scanning stage.
    config = make_config(cpu_ratio=6, trace=True)
    run = _program_run(_sc_behind_a_full_uncached_buffer(), config)
    awake, asleep, _ = _both(monkeypatch, run)
    assert asleep == awake
    assert asleep["stats"]["bus.transactions"] == 12


# -- SMP, preemption, faults, the D-cache ---------------------------------------


def test_four_core_smp_contention(monkeypatch):
    def run():
        system = smp_contention_system("csb", 4, iterations=4)
        system.run(max_cycles=MAX_CYCLES)
        return run_signature(system), [system]

    awake, asleep, systems = _both(monkeypatch, run)
    assert asleep == awake
    assert _slept(systems) > 0
    # Backoff sub -> brnz chains wait on producers not yet issued.
    assert _parked(systems) > 0


def test_quantum_preemption(monkeypatch):
    def run():
        system = System(make_config(quantum=150, switch_penalty=30, trace=True))
        region = Region(
            IO_COMBINING_BASE, 8192, PageAttr.UNCACHED_COMBINING, "sink"
        )
        system.attach_device(BurstSink(region))
        for base, signature in ((0, 0x1_0000), (4096, 0x2_0000)):
            source = contending_csb_kernel(
                20, IO_COMBINING_BASE + base, signature=signature
            )
            system.add_process(assemble(source))
        system.run(max_cycles=MAX_CYCLES)
        return run_signature(system), [system]

    awake, asleep, systems = _both(monkeypatch, run)
    assert asleep == awake
    assert _slept(systems) > 0
    assert awake["stats"]["core.squashed"] > 0


def test_faulted_bus(monkeypatch):
    faults = FaultConfig(
        seed=11, bus_nack_rate=0.2, bus_stall_rate=0.2, device_timeout_rate=0.2
    )

    def run():
        system = System(make_config(faults=faults))
        region = Region(IO_UNCACHED_BASE, 8192, PageAttr.UNCACHED, "sink")
        system.attach_device(BurstSink(region))
        system.add_process(assemble(store_kernel_uncached(512)))
        system.run(max_cycles=MAX_CYCLES)
        return run_signature(system), [system]

    awake, asleep, systems = _both(monkeypatch, run)
    assert asleep == awake
    assert _slept(systems) > 0
    for site in ("faults.bus_nack", "faults.bus_stall", "faults.device_timeout"):
        assert awake["stats"][site] > 0


def _miss_heavy_loads(lines):
    """Independent cached loads to distinct lines: more misses in flight
    than MSHRs, so later loads poll a full MSHR file."""
    body = [f"ldx [%o0+{i * 64}], %l{i % 8}" for i in range(lines)]
    return "\n".join(["set 0x8000, %o0", "mark 1", *body, "mark 2", "halt"])


def test_dcache_at_mshr_capacity(monkeypatch):
    config = SystemConfig(mem=MemoryConfig(enabled=True, mshrs=2), trace=True)
    run = _program_run(_miss_heavy_loads(16), config)
    awake, asleep, systems = _both(monkeypatch, run)
    assert asleep == awake
    assert _slept(systems) > 0
    assert awake["metrics"]["cache"]["mshr_stall_cycles"] > 0


# -- what the clock jump waits for ---------------------------------------------


def _misses_and_uncached_stores(lines):
    """Cached loads that miss, interleaved with uncached stores: refills
    and write-backs compete with programmed I/O for the bus."""
    body = []
    for i in range(lines):
        body.append(f"ldx [%o0+{i * 64}], %l{i % 8}")
        body.append(f"stx %l0, [%o1+{i * 8}]")
    setup = ["set 0x8000, %o0", f"set {IO_UNCACHED_BASE}, %o1", "mark 1"]
    return "\n".join([*setup, *body, "mark 2", "halt"])


@pytest.mark.parametrize("stall_rate", [0.0, 0.5])
def test_refills_on_the_bus(monkeypatch, stall_rate):
    config = SystemConfig(
        memory=MemoryHierarchyConfig.with_line_size(64, refills_use_bus=True),
        faults=FaultConfig(seed=5, refill_stall_rate=stall_rate),
        trace=True,
    )
    run = _program_run(_misses_and_uncached_stores(12), config)
    awake, asleep, systems = _both(monkeypatch, run)
    assert asleep == awake
    assert _jumped(systems) > 0
    assert awake["stats"]["refill.issued"] > 0
    assert (awake["stats"].get("faults.refill_stall", 0) > 0) == (stall_rate > 0)


def _dirty_victims():
    """Stores to lines sharing one D-cache set, then uncached stores:
    dirty victims queue write-backs that drain after the halt."""
    stores = [f"stx %l0, [%o0+{k * 8192}]" for k in range(6)]
    uncached = [f"stx %l0, [%o1+{k * 8}]" for k in range(4)]
    setup = ["set 0x8000, %o0", f"set {IO_UNCACHED_BASE}, %o1"]
    return "\n".join([*setup, *stores, *uncached, "halt"])


@pytest.mark.parametrize(
    "faults",
    [
        FaultConfig(),
        FaultConfig(seed=3, refill_stall_rate=0.5, bus_nack_rate=0.3),
    ],
    ids=["clean", "faulted"],
)
def test_dcache_dirty_victims_drain_after_the_halt(monkeypatch, faults):
    mem = MemoryConfig(enabled=True, mshrs=2, bus_traffic=True)
    config = make_config(mem=mem, faults=faults, trace=True)
    awake, asleep, systems = _both(monkeypatch, _program_run(_dirty_victims(), config))
    assert asleep == awake
    assert _jumped(systems) > 0
    assert awake["stats"]["writeback.issued"] > 0


@pytest.mark.parametrize("method", crossover.METHODS)
def test_nic_and_dma_sends(monkeypatch, method):
    payload = 256

    def run():
        system, nic = crossover._build_system(method)
        if method == "dma":
            system.backing.fill(crossover._PAYLOAD_SRC, payload, 0xA5)
            source = dma_send_kernel(
                crossover._PAYLOAD_SRC, payload, crossover._DMA_BASE
            )
        elif method == "csb":
            source = crossover._csb_multi_line_kernel(
                payload, crossover._NIC_COMBINING, system.config.csb.line_size
            )
        else:
            source = pio_send_kernel(
                payload, crossover._NIC_UNCACHED, lock_addr=DEFAULT_LOCK_ADDR
            )
        system.add_process(assemble(source, name=f"{method}-send"))
        system.run(max_cycles=MAX_CYCLES)
        signature = run_signature(system)
        signature["sent"] = [
            (packet.payload, packet.inline, packet.pushed_at, packet.sent_at)
            for packet in nic.sent
        ]
        return signature, [system]

    awake, asleep, systems = _both(monkeypatch, run)
    assert asleep == awake
    assert awake["sent"]


def test_nic_queue_drains_while_the_core_polls(monkeypatch):
    # Two descriptors queue in the NIC's FIFO: the second waits out the
    # first one's serialization, a device timer that falls where the
    # core, between polls of the sent count, sleeps on the bus (bus
    # cycle 38 of a jump over 37-39 without the timer).
    nic_base = IO_UNCACHED_BASE
    source = "\n".join(
        [
            f"set {nic_base}, %o0",
            "set 64, %l0",
            f"stx %l0, [%o0+{nic.TX_FIFO_OFFSET}]",
            f"set {(64 << 16) | 64}, %l1",
            f"stx %l1, [%o0+{nic.TX_FIFO_OFFSET}]",
            "set 2, %l3",
            ".POLL:",
            f"ldx [%o0+{nic.TX_COUNT_OFFSET}], %l2",
            "sub %l3, %l2, %l4",
            "brnz %l4, .POLL",
            "halt",
        ]
    )

    def run():
        system = System(make_config(cpu_ratio=2, trace=True))
        device = nic.NetworkInterface(
            Region(nic_base, 128 * 1024, PageAttr.UNCACHED, "nic"), tx_cycles=35
        )
        system.attach_device(device)
        system.add_process(assemble(source, name="nic-queue"))
        system.run(max_cycles=MAX_CYCLES)
        signature = run_signature(system)
        signature["sent"] = [(p.pushed_at, p.sent_at) for p in device.sent]
        return signature, [system]

    awake, asleep, systems = _both(monkeypatch, run)
    assert asleep == awake
    assert awake["sent"][1][1] == 38
    assert _jumped(systems) > 0


def test_ring_first_ticked_inside_a_jump(monkeypatch):
    # A ring attached while the core waits out cache misses: its first
    # tick, which counts one cycle whatever the gap, falls inside a jump
    # over cycles 20-102.
    base, size = ring_region(0)

    def run():
        system = System(make_config(cpu_ratio=6, trace=True))
        system.add_process(assemble(_miss_heavy_loads(4)))
        system.advance(until=20)
        ring = DescriptorRing(Region(base, size, PageAttr.UNCACHED, "late"))
        system.attach_device(ring)
        system.run(max_cycles=MAX_CYCLES)
        signature = run_signature(system)
        signature["ring"] = (ring.ticks, ring.occupancy_integral)
        return signature, [system]

    awake, asleep, systems = _both(monkeypatch, run)
    assert asleep == awake
    assert _jumped(systems) > 0


@pytest.mark.parametrize("chunk", [5, 97])
def test_until_chunks_end_inside_jumps(monkeypatch, chunk):
    # Figure 3e's regime (below): the machine waits on a bus 6x slower
    # than the core, so many chunks end in the middle of a wait.
    config = make_config(cpu_ratio=6, line_size=64, trace=True)
    source = store_kernel_uncached(256)

    def run():
        system = System(config)
        system.add_process(assemble(source))
        while not system.finished:
            start = system.cycle
            ran = system.advance(until=start + chunk, max_cycles=MAX_CYCLES)
            assert ran == system.cycle - start
        return _signature(system), [system]

    awake, asleep, systems = _both(monkeypatch, run)
    assert asleep == awake
    assert _jumped(systems) > 0
    whole, _ = _program_run(source, config)()
    assert asleep == whole


# -- streamed replay, sampling, a cluster ---------------------------------------


@pytest.mark.parametrize("discipline", ["uncached", "lock", "csb"])
def test_two_core_streamed_replay(monkeypatch, discipline):
    workload = TraceWorkload(
        name="sleep",
        source="synth:n=60,seed=3,gap=20,devices=4,skew=1.0,sizes=8:3/64:1",
        discipline=discipline,
    )

    def run():
        replay = TraceReplay(workload, SystemConfig(num_cores=2), 50_000_000)
        result = replay.run()
        signature = run_signature(replay.system)
        signature["latency"] = result.latency
        signature["windows"] = result.windows
        return signature, [replay.system]

    awake, asleep, systems = _both(monkeypatch, run)
    assert asleep == awake
    assert _slept(systems) > 0


def test_sampled_run(monkeypatch):
    sampling = SamplingConfig(
        enabled=True, ff_instructions=64, warmup_cycles=48, window_cycles=96
    )

    def run():
        system = System(make_config(sampling=sampling))
        system.add_process(assemble(store_kernel_uncached(2048)))
        run_sampled(system, max_cycles=MAX_CYCLES)
        signature = run_signature(system)
        signature["sampling"] = system.sampling_report.to_dict()
        return signature, [system]

    awake, asleep, systems = _both(monkeypatch, run)
    assert asleep == awake
    assert _slept(systems) > 0


def test_cluster_ping_pong(monkeypatch):
    def run():
        node_a, nic_a = _build_node()
        node_b, nic_b = _build_node()
        cluster = Cluster([node_a, node_b])
        cluster.connect(Link(nic_a, nic_b, latency=10))
        for node, kernel in ((node_a, ping_kernel), (node_b, pong_kernel)):
            source = kernel("csb", 4, IO_UNCACHED_BASE, IO_COMBINING_BASE)
            node.add_process(assemble(source))
        cluster.run(max_cycles=1_000_000)
        signature = {
            "cycle": cluster.cycle,
            "nodes": [run_signature(node) for node in cluster.systems],
            "received": [nic_a.received_total, nic_b.received_total],
        }
        return signature, cluster.systems

    awake, asleep, systems = _both(monkeypatch, run)
    assert asleep == awake
    assert _slept(systems) > 0


# -- the no-progress watchdog ---------------------------------------------------


def _nack_everything():
    config = make_config(faults=FaultConfig(seed=1, bus_nack_rate=1.0))
    system = System(config)
    system.add_process(assemble(store_kernel_uncached(256)))
    return system


def _deadlock(system):
    with pytest.raises(DeadlockError) as caught:
        system.run(max_cycles=MAX_CYCLES)
    return caught.value


def test_watchdog_fires_at_the_same_cycle_while_asleep(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(Core, "_try_sleep", _never_sleep)
        awake = _deadlock(_nack_everything())
    system = _nack_everything()
    asleep = _deadlock(system)
    assert (asleep.cycle, str(asleep)) == (awake.cycle, str(awake))
    assert system.core.slept_ticks > 40_000
    assert asleep.snapshot["cores"][0]["slept_ticks"] == system.core.slept_ticks


def test_deadlock_snapshot_names_the_stuck_state():
    system = _nack_everything()
    error = _deadlock(system)
    snapshot = error.snapshot
    assert snapshot["cycle"] == error.cycle
    (core,) = snapshot["cores"]
    assert core["core"] == 0 and core["pid"] == 1
    # The ROB head is the uncached store the NACKing bus never takes.
    assert core["head"]["op"].startswith("stx")
    assert core["head"]["mem_state"] == "waiting"
    assert core["rob"] > 0 and core["memq"] > 0
    assert core["asleep_until"] is None  # the watchdog runs awake
    depth = system.config.uncached.depth
    assert core["uncached_buffer"] == depth
    assert snapshot["csb_pending_bursts"] == 0
    assert snapshot["bus_in_flight"] == []
    report = error.report()
    assert report.splitlines()[0] == str(error)
    assert "core 0 pid 1: head seq" in report
    assert f"uncached buffer {depth}" in report
    assert "bus: 0 transactions in flight" in report


def test_deadlock_snapshot_lists_every_core_and_bus_transaction():
    faults = FaultConfig(seed=1, bus_stall_rate=1.0)
    system = System(make_config(num_cores=2, faults=faults))
    system.add_process(assemble(store_kernel_uncached(64)), core_id=0)
    system.add_process(assemble(store_kernel_uncached(64)), core_id=1)
    system.run_cycles(40)
    snapshot = system.core.machine_snapshot()
    assert [core["core"] for core in snapshot["cores"]] == [0, 1]
    assert snapshot["bus_in_flight"]
    first = snapshot["bus_in_flight"][0]
    assert first["kind"] == "uncached_store" and first["size"] == 8


# -- the per-core sleep trigger -------------------------------------------------


def test_stalled_core_sleeps_while_another_core_retires(monkeypatch):
    # Core 0's uncached stores back up behind a bus 6x slower than the
    # core while core 1 retires ALU work every cycle: core 0 sleeps on its
    # own progress, not on counters every core shares.
    busy = "\n".join(
        ["set 1000, %l6", ".BUSY:", "sub %l6, 1, %l6", "cmp %l6, 0", "bne .BUSY"]
    )

    def run():
        system = System(make_config(num_cores=2, trace=True))
        system.add_process(assemble(store_kernel_uncached(512)), core_id=0)
        system.add_process(assemble(busy + "\nhalt"), core_id=1)
        system.run(max_cycles=MAX_CYCLES)
        return _signature(system), [system]

    awake, asleep, systems = _both(monkeypatch, run)
    assert asleep == awake
    stalled, working = systems[0].cores
    assert stalled.slept_ticks > 500  # 0 when the trigger read shared counters
    assert working.slept_ticks == 0


def test_membar_sleeps_through_another_cores_stream(monkeypatch):
    # Core 1 waits on a membar behind four of its own uncached stores while
    # core 0's stream, granted the bus first, goes by: core 1 wakes when
    # its own buffer empties, not on each of core 0's transactions (under
    # the bus-wide mark, BUS_WIDE, it wakes on every one of them).
    full_ticks = []
    shipped = Core._retire

    def counting(self, now):
        if self.core_id == 1:
            full_ticks.append(now)
        shipped(self, now)

    monkeypatch.setattr(Core, "_retire", counting)
    system = System(make_config(num_cores=2, arbitration="priority"))
    stream, stores = store_kernel_uncached(512), store_kernel_uncached(32, OTHER_PAGE)
    system.add_process(assemble(stream), core_id=0)
    system.add_process(assemble(stores), core_id=1)
    system.run(max_cycles=MAX_CYCLES)
    by_core = system.stats.transactions_by_core()
    assert (by_core[0]["transactions"], by_core[1]["transactions"]) == (64, 4)
    transitions = 1  # core 1's buffer empties once; it is never full
    # Besides those: dispatching and retiring the stores, probing the membar.
    assert len(full_ticks) <= transitions + 12


# -- spinning cores -------------------------------------------------------------


def _spin_off_and_on(monkeypatch, run):
    """``run()`` with spin sleeping off and as shipped, the shipped run's
    ledgers checked against scanned ones (:func:`_checking_probes`): the
    signatures must be equal.  Returns the shipped signature and
    systems."""
    with monkeypatch.context() as patch:
        patch.setattr(Core, "_spinning", _never_spinning)
        ticked, ticked_systems = run()
    assert _spun(ticked_systems) == 0
    checks: List[Tuple[str, bool]] = []
    with monkeypatch.context() as patch:
        _checking_probes(patch, checks)
        spun, systems = run()
    assert all(ok for _, ok in checks), _failed(checks)
    assert spun == ticked
    return spun, systems


def _countdown(trips, step, bystander=False):
    """A countdown of ``trips`` iterations by ``step``, optionally with a
    bystander register stepping beside it, whose registers the code after
    the loop stores and combines.  The bystander's body issues three
    instructions an iteration: its steady state has period 1 only with
    more than two integer units."""
    body = ["add %l5, 3, %l5"] if bystander else []
    return "\n".join(
        [
            "set 0x8000, %o0",
            "set 7, %l5",
            f"set {trips * step}, %l6",
            ".SPIN:",
            *body,
            f"sub %l6, {step}, %l6",
            "brnz %l6, .SPIN",
            "stx %l5, [%o0]",
            "add %l5, %l6, %l7",
            "halt",
        ]
    )


@pytest.mark.parametrize("name", sorted(_TARGETS))
def test_registry_target_identical_with_spinning(monkeypatch, name):
    # The polling kernels hold no register-only loop: a shorter window.
    target = _TARGETS[name]
    config = make_config(line_size=target.context.line_size)
    window = 5_000 if name.startswith(POLLING_PREFIXES) else None
    run = _program_run(target.source, config, window, max_cycles=10_000)
    _, systems = _spin_off_and_on(monkeypatch, run)
    if name == "smp-csb-core7":  # its entry stagger is a countdown spin
        assert _spun(systems) > 0


@pytest.mark.parametrize("cores", [2, 4, 8])
@pytest.mark.parametrize("kind", ["lock", "csb"])
def test_smp_contention_identical_with_spinning(monkeypatch, kind, cores):
    def run():
        system = smp_contention_system(kind, cores)
        system.run(max_cycles=20_000)
        return _signature(system), [system]

    _, systems = _spin_off_and_on(monkeypatch, run)
    if kind == "csb" and cores > 2:  # retry backoffs spin
        assert _spun(systems) > 0


@pytest.mark.parametrize("seed", [3, 20261016])
def test_two_core_streamed_csb_replay_spins(monkeypatch, seed):
    workload = TraceWorkload(
        name="spin",
        source=f"synth:n=60,seed={seed},gap=20,devices=4,skew=1.0,sizes=8:3/64:1",
        discipline="csb",
    )

    def run():
        replay = TraceReplay(workload, SystemConfig(num_cores=2), 20_000)
        result = replay.run()
        signature = _signature(replay.system)
        signature["latency"] = result.latency
        signature["windows"] = result.windows
        return signature, [replay.system]

    _, systems = _spin_off_and_on(monkeypatch, run)
    assert _spun(systems) > 0


def test_quantum_preemption_inside_spins(monkeypatch):
    # Each quantum's timer interrupt wakes a core asleep in a spin: the
    # pipeline catches up, then the squash re-executes the loop later.
    def run():
        system = System(make_config(quantum=150, switch_penalty=30))
        for trips in (700, 900):
            system.add_process(assemble(_countdown(trips, 1)))
        system.run(max_cycles=20_000)
        return _signature(system), [system]

    signature, systems = _spin_off_and_on(monkeypatch, run)
    assert _spun(systems) > 0
    assert signature["stats"]["core.squashed"] > 0
    assert systems[0].scheduler.context_switches > 4


@pytest.mark.parametrize("chunk", [1, 7, 997, None], ids=str)
def test_until_chunks_end_inside_spins(monkeypatch, chunk):
    # Between chunks (or System.step calls, chunk None) a reader sees the
    # registers, retired count and pc that ticking would have left, also
    # while the core sleeps in a spin; so does the pipeline, down to the
    # retired producers in-flight records still read.
    source = _countdown(1200, 1)

    def run():
        system = System(make_config())
        system.add_process(assemble(source))
        seen = []
        while not system.finished:
            if chunk is None:
                assert system.cycle < 10_000, "exceeded max_cycles=10000"
                system.step()
            else:
                system.advance(until=system.cycle + chunk, max_cycles=10_000)
            context = system.core.context
            if context is not None:
                registers = context.registers
                # The pipeline too, at every 32nd reading: a long read.
                pipeline = (
                    system.core._spin_state(system.cycle)
                    if len(seen) % 32 == 0
                    else None
                )
                seen.append(
                    (
                        system.cycle,
                        context.pc,
                        context.retired_instructions,
                        registers.read("l5"),
                        registers.read("l6"),
                        pipeline,
                    )
                )
        signature = _signature(system)
        signature["chunks"] = seen
        return signature, [system]

    _, systems = _spin_off_and_on(monkeypatch, run)
    assert _spun(systems) > 1000


def test_sampled_run_with_spins(monkeypatch):
    sampling = SamplingConfig(
        enabled=True, ff_instructions=64, warmup_cycles=48, window_cycles=96
    )

    def run():
        system = System(make_config(sampling=sampling))
        system.add_process(assemble(_countdown(2000, 1)))
        run_sampled(system, max_cycles=10_000)
        signature = _signature(system)
        signature["sampling"] = system.sampling_report.to_dict()
        return signature, [system]

    _, systems = _spin_off_and_on(monkeypatch, run)
    assert _spun(systems) > 0


def test_dcache_with_spins(monkeypatch):
    config = SystemConfig(mem=MemoryConfig(enabled=True, mshrs=2))
    source = _miss_heavy_loads(8).replace("halt", _countdown(200, 1))
    _, systems = _spin_off_and_on(monkeypatch, _program_run(source, config))
    assert _spun(systems) > 0


@pytest.mark.parametrize("rob", [64, 63])
@pytest.mark.parametrize("bystander", [False, True])
@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("trips", [1, 2, 31, 32, 33, 64, 65, 256, 257])
def test_countdown_exits_at_every_alignment(monkeypatch, trips, step, bystander, rob):
    # Short and long trips, both body shapes and an odd ROB put the exit
    # branch at each dispatch position of the last slept period.
    core = CoreConfig(rob_entries=rob, int_units=4 if bystander else 2)
    config = make_config(core=core)
    run = _program_run(_countdown(trips, step, bystander), config, max_cycles=2_000)
    _, systems = _spin_off_and_on(monkeypatch, run)
    if trips > 255:  # shorter loops may exit while the ROB still fills
        assert _spun(systems) > 0


def test_period_two_steady_state_ticks_through(monkeypatch):
    # With two-cycle integer latency the countdown's state repeats every
    # other cycle: the period-1 probe fails and the core ticks through.
    config = make_config(core=CoreConfig(int_latency=2))
    run = _program_run(_countdown(300, 1), config, max_cycles=2_000)
    _, systems = _spin_off_and_on(monkeypatch, run)
    assert _spun(systems) == 0


@pytest.mark.parametrize("seed", range(50))
def test_random_spin_program_identical(monkeypatch, seed):
    run = _program_run(generate_spin_program(seed), make_config(), max_cycles=10_000)
    _, systems = _spin_off_and_on(monkeypatch, run)


def test_unbounded_ba_spin_hits_max_cycles_identically(monkeypatch):
    # A ``ba`` self-loop never exits: only max_cycles ends its sleep, and
    # the error and the settled snapshot equal ticking through.
    def run():
        system = System(make_config())
        system.add_process(assemble("loop: ba loop\nhalt"))
        with pytest.raises(DeadlockError) as caught:
            system.run(max_cycles=2_000)
        error = caught.value
        cores = [
            (core["core"], core["pid"], core["rob"], core["memq"], core["head"])
            for core in error.snapshot["cores"]
        ]
        signature = {
            "error": (error.cycle, str(error)),
            "cores": cores,
            "csb": error.snapshot["csb_pending_bursts"],
            "bus": error.snapshot["bus_in_flight"],
            "run": _signature(system),
        }
        return signature, [system]

    signature, systems = _spin_off_and_on(monkeypatch, run)
    assert signature["error"][0] == 2_000
    assert _spun(systems) > 1_900


def test_trace_events_identical_with_spinning(monkeypatch):
    # An EventBus observer leaves spin sleeping on: the core publishes
    # nothing inside such a loop, so the --trace-events stream is the same.
    workload = TraceWorkload(
        name="spin",
        source="synth:n=40,seed=3,gap=20,devices=4,skew=1.0,sizes=8:3/64:1",
        discipline="csb",
    )
    job = TraceJob(SystemConfig(num_cores=2), workload, "cycles", name="spin")
    sleeps = []
    shipped = Core._try_spin

    def counting(self, now, probe):
        shipped(self, now, probe)
        sleeps.append(self._spin is not None)

    def events():
        stream = io.StringIO()
        runner = SweepRunner(
            observer_factory=lambda job: [JsonlSink(stream, extra={"job": job.name})]
        )
        result = runner.run([job])
        return stream.getvalue(), result

    with monkeypatch.context() as patch:
        patch.setattr(Core, "_spinning", _never_spinning)
        ticked = events()
    monkeypatch.setattr(Core, "_try_spin", counting)
    spun = events()
    assert spun == ticked
    assert ticked[0].count("\n") > 100
    assert any(sleeps)


# -- the O(1) probe, the walk-free wake cycle and the lazy ledger ---------------


def _sleep_counts(systems):
    """Each core's host-side sleep counts, and each system's jumped cycles."""
    return [
        (
            [(core.slept_ticks, core.spun_ticks) for core in system.cores],
            system.jumped_cycles,
        )
        for system in systems
    ]


def _checking_probes(patch, checks):
    """Patch the shipped probes to also take the per-entry snapshot and
    scan every counter (:func:`scanning_counts`), and record in
    ``checks``: at every probed tick that came out quiet by the O(1)
    state, whether the snapshot came out equal too and whether the
    journal held the scanned ledger (:func:`scanning_ledger`); at every
    spin sleep, whether its ledger equals the scanned one."""
    shipped_probe = Core._quiet_probe
    shipped_sleep = Core._try_sleep
    shipped_spin_probe = Core._spin_probe
    shipped_spin = Core._try_spin

    def probe(self, journal):
        before = scanning_counts(self)
        return shipped_probe(self, journal), snapshot_pipeline_state(self), before

    def try_sleep(self, now, probe):
        probe, snapshot, before = probe
        if self._pipeline_state() == probe[0]:
            scanned = _totals(scanning_ledger(self, before))
            checks.append(("snapshot", snapshot_pipeline_state(self) == snapshot))
            checks.append(("ledger", _totals(probe[1]) == scanned))
        shipped_sleep(self, now, probe)

    def spin_probe(self, now, journal):
        return shipped_spin_probe(self, now, journal), scanning_counts(self)

    def try_spin(self, now, probe):
        probe, before = probe
        shipped_spin(self, now, probe)
        if self._spin is not None:
            scanned = _totals(scanning_ledger(self, before))
            checks.append(("spin ledger", _totals(self._sleep_ledger) == scanned))

    patch.setattr(Core, "_quiet_probe", probe)
    patch.setattr(Core, "_try_sleep", try_sleep)
    patch.setattr(Core, "_spin_probe", spin_probe)
    patch.setattr(Core, "_try_spin", try_spin)


def _failed(checks) -> str:
    failed = [kind for kind, ok in checks if not ok]
    return f"{len(failed)} of {len(checks)} checks failed: {sorted(set(failed))}"


def _against_per_entry(monkeypatch, run):
    """``run()`` as shipped, checking at every probed quiet tick that equal
    O(1) states imply equal per-entry snapshots and that the journal
    holds the scanned ledger, with the replaced bookkeeping
    (:data:`PER_ENTRY`) and with the bus-wide wake mark
    (:data:`BUS_WIDE`): the signatures, and the host-side sleep counts of
    the first two, must be equal.  Returns the shipped signature, its
    systems and the number of probed quiet ticks."""
    checks: List[Tuple[str, bool]] = []
    with monkeypatch.context() as patch:
        _checking_probes(patch, checks)
        shipped, systems = run()
    assert all(ok for _, ok in checks), _failed(checks)
    with monkeypatch.context() as patch:
        for (owner, name), reference in PER_ENTRY.items():
            patch.setattr(owner, name, reference)
        reference, reference_systems = run()
    assert shipped == reference
    assert _sleep_counts(systems) == _sleep_counts(reference_systems)
    assert _bus_wide(monkeypatch, run) == shipped
    return shipped, systems, sum(kind == "snapshot" for kind, _ in checks)


def _bus_wide(monkeypatch, run):
    """``run()`` with today's wake mark replaced by the bus-wide one
    (:data:`BUS_WIDE`), checking the probes' ledgers against the scanned
    ones as :func:`_checking_probes` does; returns the signature."""
    checks: List[Tuple[str, bool]] = []
    with monkeypatch.context() as patch:
        for (owner, name), reference in BUS_WIDE.items():
            patch.setattr(owner, name, reference, raising=False)
        _checking_probes(patch, checks)
        signature, _ = run()
    assert all(ok for _, ok in checks), _failed(checks)
    return signature


@pytest.mark.parametrize("name", sorted(_TARGETS))
def test_registry_target_o1_probe_and_lazy_ledger(monkeypatch, name):
    target = _TARGETS[name]
    config = make_config(line_size=target.context.line_size)
    window = POLLING_WINDOW if name.startswith(POLLING_PREFIXES) else None
    _against_per_entry(monkeypatch, _program_run(target.source, config, window))


@pytest.mark.parametrize("cores", [2, 4, 8])
@pytest.mark.parametrize("kind", ["lock", "csb"])
def test_smp_contention_o1_probe_and_lazy_ledger(monkeypatch, kind, cores):
    def run():
        system = smp_contention_system(kind, cores)
        system.run(max_cycles=MAX_CYCLES)
        return _signature(system), [system]

    _, systems, quiet = _against_per_entry(monkeypatch, run)
    assert quiet > 0 and _slept(systems) > 0


@pytest.mark.parametrize("discipline", ["uncached", "lock", "csb"])
def test_two_core_streamed_replay_o1_probe_and_lazy_ledger(monkeypatch, discipline):
    workload = TraceWorkload(
        name="ledger",
        source="synth:n=80,seed=1,gap=20,devices=4,skew=1.0,sizes=8:3/64:1",
        discipline=discipline,
    )

    def run():
        replay = TraceReplay(workload, SystemConfig(num_cores=2), 50_000_000)
        result = replay.run()
        signature = _signature(replay.system)
        signature["latency"] = result.latency
        signature["rings"] = [ring_state(ring) for ring in result.rings]
        return signature, [replay.system]

    _, systems, quiet = _against_per_entry(monkeypatch, run)
    assert quiet > 0 and _slept(systems) > 0


def _misses_behind_uncached_stores(loads):
    """Uncached stores that back up behind the bus, then cached loads that
    miss: the loads' accesses complete behind the stalled ROB head, in
    ticks that otherwise change nothing."""
    stores = [f"stx %l0, [%o1+{k * 8}]" for k in range(12)]
    body = [f"ldx [%o0+{i * 64}], %l{1 + i % 6}" for i in range(loads)]
    setup = ["set 0x8000, %o0", f"set {IO_UNCACHED_BASE}, %o1"]
    return "\n".join([*setup, *stores, *body, "halt"])


@pytest.mark.parametrize(
    "config",
    [
        make_config(cpu_ratio=6),
        SystemConfig(mem=MemoryConfig(enabled=True, mshrs=2)),
    ],
    ids=["blocking-cache", "dcache"],
)
def test_accesses_completing_behind_a_stalled_head(monkeypatch, config):
    # Only the in-flight access list's length tells such a tick from a
    # quiet one: no entry that changes is the ROB head.
    run = _program_run(_misses_behind_uncached_stores(6), config)
    _, systems, quiet = _against_per_entry(monkeypatch, run)
    assert quiet > 0 and _slept(systems) > 0


def _deadlocked(build, max_cycles):
    def run():
        system = build()
        with pytest.raises(DeadlockError) as caught:
            system.run(max_cycles=max_cycles)
        error = caught.value
        signature = {
            "error": (error.cycle, str(error)),
            "snapshot": error.snapshot,
            "run": _signature(system),
        }
        return signature, [system]

    return run


def _two_cores_nacked():
    """Two cores storing into a bus that refuses every transaction: both
    sleep on a full uncached buffer until one's watchdog fires."""
    config = make_config(num_cores=2, faults=FaultConfig(seed=1, bus_nack_rate=1.0))
    system = System(config)
    system.add_process(assemble(store_kernel_uncached(256)), core_id=0)
    system.add_process(assemble(store_kernel_uncached(64)), core_id=1)
    return system


@pytest.mark.parametrize(
    "build, max_cycles",
    [
        (_nack_everything, MAX_CYCLES),  # the watchdog fires
        (_nack_everything, 30_000),  # max_cycles, while the core sleeps
        (_two_cores_nacked, MAX_CYCLES),  # one watchdog, one core asleep
    ],
    ids=["watchdog", "max-cycles", "two-cores"],
)
def test_deadlock_snapshot_equals_the_per_tick_ledger(monkeypatch, build, max_cycles):
    # The snapshot settles every core first, so its slept_ticks (and the
    # counters the run leaves) are what the per-tick ledger had paid.
    signature, systems, _ = _against_per_entry(
        monkeypatch, _deadlocked(build, max_cycles)
    )
    cores = signature["snapshot"]["cores"]
    assert [core["slept_ticks"] for core in cores] == [
        core.slept_ticks for core in systems[0].cores
    ]
    assert sum(core["slept_ticks"] for core in cores) > 20_000
