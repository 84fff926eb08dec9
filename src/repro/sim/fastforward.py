"""Functional fast-forward tier: the ISA without the microarchitecture.

The detailed core is *functional-first* — every architectural result is
computed from :mod:`repro.isa.semantics` helpers at dispatch, and the
timing plane only decides *when* those results land.  That factoring is
what makes a fast-forward tier possible at all: this module executes the
same semantics helpers against the same backing store, register file, and
conditional store buffer, with the entire timing plane (ROB, functional
units, caches, bus, uncached buffer, per-cycle stats) deleted.

Programs are pre-decoded into per-instruction closures (``op(state) ->
next_pc``) with every decode-time constant — canonical register names,
resolved branch targets, the ALU callables of
:data:`repro.isa.semantics.ALU_OPS`, ``r0`` write guards — baked in, so
the inner loop is one dict-free closure call per instruction.  Decoded
programs are cached module-wide, keyed by
:meth:`repro.isa.program.Program.content_key`.

Hand-off discipline (the part correctness hangs on):

* **detailed -> fast-forward** only at a quiescent point: pipeline
  drained, uncached buffer empty, no CSB burst in flight.  The
  architectural state is then exactly {registers, pc, backing store, CSB
  line state, link register}, all of which transfer.
* **fast-forward -> detailed** re-installs the context (refreshing the
  core's speculative fetch pointer) and restores the link register, which
  ``install_context`` deliberately clears.

Because both tiers evaluate the *same* helper functions over the *same*
state, the final architectural state of a fast-forwarded run is identical
to a detailed run by construction — a property the differential tests
check over every registry workload and the randomized program generator.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigError, SimulationError
from repro.common.stats import StatsCollector
from repro.isa import semantics
from repro.isa.instructions import (
    AluInstruction,
    BLOCK_STORE_REGS,
    BlockStoreInstruction,
    BranchInstruction,
    CompareInstruction,
    FU_FP,
    HaltInstruction,
    LoadInstruction,
    LoadLinkedInstruction,
    MarkInstruction,
    MembarInstruction,
    NopInstruction,
    SetInstruction,
    StoreConditionalInstruction,
    StoreInstruction,
    SwapInstruction,
)
from repro.isa.program import Program
from repro.memory.layout import PageAttr
from repro.uncached.csb import ConditionalStoreBuffer, FlushResult

MASK64 = semantics.MASK64

#: Sentinel next-pc meaning "the program halted".
_HALT = -1

#: One decoded instruction: state -> next pc (or :data:`_HALT`).
FFOp = Callable[["FFState"], int]


class FFState:
    """Mutable interpreter state threaded through the decoded closures.

    Everything here is *architectural*: the live register mapping of the
    installed context, the system's backing store, the CSB mirror, the
    link register, and the mark bookkeeping.  Timing state (caches, TLB,
    buffers) has no representation — the TLB in particular is bypassed on
    purpose, because :meth:`repro.memory.tlb.AttributeTLB.attribute_of`
    mutates hit/miss counters the detailed tier owns.
    """

    __slots__ = (
        "regs",
        "backing",
        "space",
        "page_size",
        "attr_cache",
        "csb",
        "pid",
        "link",
        "line_size",
        "marks",
        "stats_mark",
        "mark_cycle",
        "ff_marks",
        "ff_total",
        "executed",
    )

    def __init__(self, system) -> None:
        self.backing = system.backing
        self.space = system.space
        self.page_size = system.space.page_size
        self.attr_cache: Dict[int, PageAttr] = {}
        # Private CSB mirror: same architectural model, throwaway stats
        # collector so fast-forwarded combining stores do not perturb the
        # detailed tier's csb.* counters.
        self.csb = ConditionalStoreBuffer(system.config.csb, StatsCollector())
        self.line_size = system.config.memory.line_size
        self.stats_mark = system.stats.mark
        self.mark_cycle = 0
        self.ff_marks: Dict[str, int] = {}
        self.ff_total = 0
        self.executed = 0
        self.regs: Dict[str, int] = {}
        self.marks: Dict[str, int] = {}
        self.pid = 0
        self.link: Optional[int] = None

    def bind_context(self, context) -> None:
        self.regs = context.registers.raw_values
        self.marks = context.marks
        self.pid = context.pid

    def attribute(self, address: int) -> PageAttr:
        """Page attribute with a private page cache (TLB-free)."""
        page = address // self.page_size
        attr = self.attr_cache.get(page)
        if attr is None:
            attr = self.space.attribute_of(address)
            self.attr_cache[page] = attr
        return attr


# -- decoding ------------------------------------------------------------------

_DECODE_CACHE: Dict[tuple, List[FFOp]] = {}
_DECODE_CACHE_LIMIT = 256


def decode_program(program: Program, line_size: int) -> List[FFOp]:
    """Pre-decoded closure list for ``program``, cached by content."""
    key = (program.content_key(), line_size)
    ops = _DECODE_CACHE.get(key)
    if ops is None:
        if len(_DECODE_CACHE) >= _DECODE_CACHE_LIMIT:
            _DECODE_CACHE.clear()
        ops = [
            _decode_one(instr, index, program, line_size)
            for index, instr in enumerate(program)
        ]
        _DECODE_CACHE[key] = ops
    return ops


def _address_fn(instr) -> Callable[[Dict[str, int]], int]:
    """Closure computing ``[base + offset]`` from the register mapping."""
    base = instr.base
    offset = instr.offset
    if isinstance(offset, str):

        def address_reg(regs, base=base, offset=offset):
            return (regs[base] + regs[offset]) & MASK64

        return address_reg

    def address_imm(regs, base=base, offset=offset):
        return (regs[base] + offset) & MASK64

    return address_imm


def _aligned(address: int, size: int, pc: int) -> None:
    if address % size:
        raise SimulationError(
            f"unaligned {size}-byte access at {address:#x} (pc={pc})"
        )


def _decode_one(instr, index: int, program: Program, line_size: int) -> FFOp:
    nxt = index + 1
    if isinstance(instr, SetInstruction):
        rd = instr.rd
        value = instr.value & MASK64
        if rd == "r0":
            return lambda state, nxt=nxt: nxt

        def ff_set(state, rd=rd, value=value, nxt=nxt):
            state.regs[rd] = value
            return nxt

        return ff_set

    if isinstance(instr, AluInstruction):
        fn = (
            semantics.FP_OPS[instr.op]
            if instr.fu == FU_FP
            else semantics.ALU_OPS[instr.op]
        )
        rd, rs1, op2 = instr.rd, instr.rs1, instr.operand2
        if rd == "r0":
            return lambda state, nxt=nxt: nxt
        if isinstance(op2, str):

            def ff_alu_rr(state, fn=fn, rd=rd, rs1=rs1, rs2=op2, nxt=nxt):
                regs = state.regs
                regs[rd] = fn(regs[rs1], regs[rs2])
                return nxt

            return ff_alu_rr

        def ff_alu_ri(state, fn=fn, rd=rd, rs1=rs1, imm=op2, nxt=nxt):
            regs = state.regs
            regs[rd] = fn(regs[rs1], imm)
            return nxt

        return ff_alu_ri

    if isinstance(instr, CompareInstruction):
        rs1, op2 = instr.rs1, instr.operand2
        compare = semantics.compare
        if isinstance(op2, str):

            def ff_cmp_rr(state, rs1=rs1, rs2=op2, nxt=nxt, compare=compare):
                regs = state.regs
                regs["icc"] = compare(regs[rs1], regs[rs2])
                return nxt

            return ff_cmp_rr

        def ff_cmp_ri(state, rs1=rs1, imm=op2, nxt=nxt, compare=compare):
            regs = state.regs
            regs["icc"] = compare(regs[rs1], imm)
            return nxt

        return ff_cmp_ri

    if isinstance(instr, BranchInstruction):
        target = program.target_of(instr)
        op = instr.op
        if op == "ba":
            return lambda state, target=target: target
        if op in ("brz", "brnz"):
            rs1 = instr.rs1
            want_zero = op == "brz"

            def ff_brreg(state, rs1=rs1, target=target, nxt=nxt, wz=want_zero):
                return target if (state.regs[rs1] == 0) == wz else nxt

            return ff_brreg
        taken_fn = semantics.branch_taken

        def ff_brcc(state, op=op, target=target, nxt=nxt, taken_fn=taken_fn):
            return target if taken_fn(op, cc=state.regs["icc"]) else nxt

        return ff_brcc

    if isinstance(instr, LoadLinkedInstruction):
        address_fn = _address_fn(instr)
        rd = instr.rd

        def ff_ll(state, address_fn=address_fn, rd=rd, nxt=nxt, pc=index):
            address = address_fn(state.regs)
            _aligned(address, 8, pc)
            if state.attribute(address) is not PageAttr.CACHED:
                raise SimulationError(
                    f"load-linked requires cached space, not {address:#x}"
                )
            value = state.backing.read_int(address, 8)
            if rd != "r0":
                state.regs[rd] = value
            state.link = address - (address % state.line_size)
            return nxt

        return ff_ll

    if isinstance(instr, StoreConditionalInstruction):
        address_fn = _address_fn(instr)
        rs, rd = instr.rs, instr.rd

        def ff_sc(state, address_fn=address_fn, rs=rs, rd=rd, nxt=nxt, pc=index):
            address = address_fn(state.regs)
            _aligned(address, 8, pc)
            if state.attribute(address) is not PageAttr.CACHED:
                raise SimulationError(
                    f"store-conditional requires cached space, not {address:#x}"
                )
            line = address - (address % state.line_size)
            if state.link == line:
                state.backing.write_int(address, state.regs[rs], 8)
                value = 1
            else:
                value = 0
            state.link = None
            if rd != "r0":
                state.regs[rd] = value
            return nxt

        return ff_sc

    if isinstance(instr, SwapInstruction):
        address_fn = _address_fn(instr)
        rd = instr.rd

        def ff_swap(state, address_fn=address_fn, rd=rd, nxt=nxt, pc=index):
            regs = state.regs
            address = address_fn(regs)
            _aligned(address, 8, pc)
            attr = state.attribute(address)
            expected = regs[rd]
            if attr is PageAttr.CACHED:
                backing = state.backing
                value = backing.read_int(address, 8)
                backing.write_int(address, expected, 8)
                link = state.link
                if link is not None and address - (address % state.line_size) == link:
                    state.link = None
            elif attr is PageAttr.UNCACHED_COMBINING:
                csb = state.csb
                if (
                    csb.conditional_flush(address, state.pid, expected)
                    is FlushResult.SUCCESS
                ):
                    burst = csb.pop_burst()
                    state.backing.write_bytes(burst.address, burst.data)
                    value = expected
                else:
                    value = 0
            else:
                backing = state.backing
                value = backing.read_int(address, 8)
                backing.write_int(address, expected, 8)
            if rd != "r0":
                regs[rd] = value
            return nxt

        return ff_swap

    if isinstance(instr, BlockStoreInstruction):
        address_fn = _address_fn(instr)
        size = instr.size

        def ff_blockstore(state, address_fn=address_fn, size=size, nxt=nxt, pc=index):
            regs = state.regs
            address = address_fn(regs)
            _aligned(address, size, pc)
            if state.attribute(address) is PageAttr.CACHED:
                raise SimulationError(
                    "block stores bypass the cache hierarchy; target "
                    f"uncached space, not {address:#x}"
                )
            packed = 0
            for reg in BLOCK_STORE_REGS:
                packed = (packed << 64) | regs[reg]
            state.backing.write_bytes(address, packed.to_bytes(size, "big"))
            return nxt

        return ff_blockstore

    if isinstance(instr, LoadInstruction):
        address_fn = _address_fn(instr)
        rd = instr.rd
        size = instr.size

        def ff_load(state, address_fn=address_fn, rd=rd, size=size, nxt=nxt, pc=index):
            address = address_fn(state.regs)
            _aligned(address, size, pc)
            state.attribute(address)  # unmapped-access fault parity
            value = state.backing.read_int(address, size)
            if rd != "r0":
                state.regs[rd] = value
            return nxt

        return ff_load

    if isinstance(instr, StoreInstruction):
        address_fn = _address_fn(instr)
        rs = instr.rs
        size = instr.size
        byte_mask = (1 << (8 * size)) - 1

        def ff_store(
            state,
            address_fn=address_fn,
            rs=rs,
            size=size,
            byte_mask=byte_mask,
            nxt=nxt,
            pc=index,
        ):
            regs = state.regs
            address = address_fn(regs)
            _aligned(address, size, pc)
            attr = state.attribute(address)
            value = regs[rs]
            if attr is PageAttr.UNCACHED_COMBINING:
                state.csb.store(
                    address, (value & byte_mask).to_bytes(size, "big"), state.pid
                )
            else:
                state.backing.write_int(address, value, size)
                if attr is PageAttr.CACHED:
                    link = state.link
                    if (
                        link is not None
                        and address - (address % state.line_size) == link
                    ):
                        state.link = None
            return nxt

        return ff_store

    if isinstance(instr, MarkInstruction):
        label = instr.label

        def ff_mark(state, label=label, nxt=nxt):
            state.marks[label] = state.mark_cycle
            state.stats_mark(label, state.mark_cycle)
            state.ff_marks[label] = state.ff_total + state.executed
            return nxt

        return ff_mark

    if isinstance(instr, HaltInstruction):
        return lambda state: _HALT

    if isinstance(instr, (MembarInstruction, NopInstruction)):
        # Both are pure timing: the fast-forward tier is always quiescent,
        # so a membar's ordering constraint holds trivially.
        return lambda state, nxt=nxt: nxt

    raise SimulationError(f"fast-forward cannot decode {instr!r}")


# -- the fast-forward engine ---------------------------------------------------


class FastForwarder:
    """Advances a system's installed context functionally.

    Usage (what the sampling controller does)::

        ff = FastForwarder(system)
        ...  # run detailed, then drain to a quiescent point
        executed = ff.fast_forward(100_000)
        ...  # resume detailed: warm up, measure, drain, repeat
    """

    def __init__(self, system) -> None:
        config = system.config
        if config.num_cores != 1:
            raise ConfigError("fast-forward supports single-core systems only")
        if config.quantum is not None:
            raise ConfigError("fast-forward is incompatible with preemptive quanta")
        if system.faults is not None:
            raise ConfigError("fast-forward is incompatible with fault injection")
        self.system = system
        self.state = FFState(system)

    @property
    def instructions_executed(self) -> int:
        """Total instructions executed functionally, over all hand-offs."""
        return self.state.ff_total

    @property
    def ff_marks(self) -> Dict[str, int]:
        """Label -> cumulative fast-forward instruction count at retire."""
        return self.state.ff_marks

    def fast_forward(self, budget: int) -> int:
        """Execute up to ``budget`` instructions functionally.

        The system must be at a quiescent point (pipeline drained, all
        I/O complete); on return the detailed tier can resume seamlessly.
        Returns the number of instructions executed — 0 when there is no
        live context to advance (nothing installed yet, or halted).
        """
        if budget < 1:
            raise ConfigError("fast-forward budget must be >= 1 instruction")
        system = self.system
        if system.devices:
            raise ConfigError("fast-forward cannot model attached devices")
        core = system.core
        context = core.context
        if context is None or context.halted:
            return 0
        if not core.drained:
            raise SimulationError("fast-forward hand-off with pipeline in flight")
        if not system._quiescent():
            raise SimulationError("fast-forward hand-off with I/O in flight")
        state = self.state
        state.bind_context(context)
        state.link = core.link_address
        state.mark_cycle = system.cycle
        state.csb.import_state(system.csb.export_state())
        ops = decode_program(context.program, state.line_size)
        executed = 0
        state.executed = 0
        pc = context.pc
        while executed < budget:
            next_pc = ops[pc](state)
            executed += 1
            state.executed = executed
            if next_pc < 0:
                # The detailed core's commit leaves pc just past the halt.
                context.halted = True
                pc += 1
                break
            pc = next_pc
        context.pc = pc
        context.retired_instructions += executed
        state.ff_total += executed
        system.csb.import_state(state.csb.export_state())
        if not context.halted:
            system.scheduler.queues[0].reinstall(context)
            core.link_address = state.link
        return executed
