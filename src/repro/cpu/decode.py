"""Per-pc decode table for the detailed core.

What the pipeline asks of an instruction at dispatch, routing, retirement
and commit is fixed once its program is finalized: the canonical registers
it reads and writes, the queue it enters, the kind of work it does and,
for a branch, the resolved target.  :func:`decode_program` computes that
once per :class:`~repro.isa.program.Program` (immutable once finalized),
so the core reads :class:`DecodedOp` fields instead of calling
``sources()``, ``destination()``, ``isinstance`` chains and
``Program.target_of`` for every dynamic instruction.  A record restates
the instruction's own API, plus one fact about its place in the program:
the register-only countdown loop (:class:`SpinLoop`) it sits in, if any.

A record also carries the work, in the fast-forward tier's idiom
(:func:`repro.sim.fastforward.decode_program`): the core's dispatch effect
and retire handler for its kind, route and opcode (:func:`_handlers`), and
for ``set``, ``cmp`` and ``alu`` a closure computing the result from the
operands.  The core calls them without testing the kind again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.isa import semantics
from repro.isa.instructions import (
    AluInstruction,
    BlockStoreInstruction,
    BranchInstruction,
    CompareInstruction,
    FU_FP,
    FU_NONE,
    Instruction,
    LoadInstruction,
    LoadLinkedInstruction,
    SetInstruction,
    StoreConditionalInstruction,
    StoreInstruction,
    SwapInstruction,
)
from repro.isa.program import Program, ProgramError
from repro.isa.registers import MASK64, is_fp_register

if TYPE_CHECKING:
    from repro.cpu.inflight import InFlight

#: Queue routes (``DecodedOp.route``): the memory queue; the issue queue;
#: issued at dispatch (no functional-unit class); no queue at all (marks,
#: halts and membars, which are timing-ready at dispatch).
ROUTE_MEMQ = "memq"
ROUTE_ISSUE = "issue"
ROUTE_ISSUED = "issued"
ROUTE_UNTIMED = "untimed"

#: ``DecodedOp.kind`` by instruction class, first match wins.  Memory
#: kinds pick the address-time effect and the retire path; ``set``,
#: ``cmp`` and ``alu`` compute their result from operands.
_KINDS: Tuple[Tuple[type, str], ...] = (
    (SwapInstruction, "swap"),
    (LoadLinkedInstruction, "ll"),
    (StoreConditionalInstruction, "sc"),
    (LoadInstruction, "load"),
    (BlockStoreInstruction, "blockstore"),
    (StoreInstruction, "store"),
    (BranchInstruction, "branch"),
    (SetInstruction, "set"),
    (CompareInstruction, "cmp"),
    (AluInstruction, "alu"),
)


class SpinLoop(NamedTuple):
    """A register-only countdown loop: a backward ``brnz r`` or ``ba``
    whose other body instructions only add or subtract an immediate to
    their own integer register (``r`` among them).  Each iteration adds a
    constant to each of those registers, modulo 2**64, so a core spinning
    in one may sleep through its steady state (see
    :meth:`repro.cpu.core.Core.tick`)."""

    #: the branch target: the body's first pc
    head: int
    #: the closing branch's pc: the body's last
    branch: int
    #: the register ``brnz`` tests; None for ``ba``, which never exits
    cond: Optional[str]
    #: ``(register, what one iteration adds to it mod 2**64)`` pairs
    steps: Tuple[Tuple[str, int], ...]
    #: what the body adds to ``cond`` from each body position (offset
    #: from ``head``) up to the branch, mod 2**64
    to_branch: Tuple[int, ...]


def _affine_step(instr: Instruction) -> Optional[Tuple[str, int]]:
    """``(register, addend mod 2**64)`` for an integer ``add``/``sub`` of an
    immediate to its own register, else None."""
    if (
        not isinstance(instr, AluInstruction)
        or instr.op not in ("add", "sub")
        or isinstance(instr.operand2, str)
        or instr.rs1 != instr.rd
        or instr.rd == "r0"
        or is_fp_register(instr.rd)
    ):
        return None
    addend = instr.operand2 if instr.op == "add" else -instr.operand2
    return instr.rd, addend & MASK64


def _spin_loops(program: Program) -> Dict[int, SpinLoop]:
    """Every pc inside a :class:`SpinLoop` of ``program``, mapped to it.
    Such loops never overlap: a body holds no branch."""
    loops: Dict[int, SpinLoop] = {}
    for pc, instr in enumerate(program):
        if not isinstance(instr, BranchInstruction) or instr.op not in ("brnz", "ba"):
            continue
        head = program.target_of(instr)
        affine = [_affine_step(program[index]) for index in range(head, pc)]
        body = [step for step in affine if step is not None]
        if head > pc or len(body) < len(affine):
            continue
        steps: Dict[str, int] = {}
        for reg, addend in body:
            steps[reg] = (steps.get(reg, 0) + addend) & MASK64
        cond = instr.rs1
        if cond is not None and cond not in steps:
            continue
        to_branch = [0] * (pc - head + 1)
        for offset in range(pc - head - 1, -1, -1):
            reg, addend = body[offset]
            here = addend if reg == cond else 0
            to_branch[offset] = (to_branch[offset + 1] + here) & MASK64
        loop = SpinLoop(head, pc, cond, tuple(steps.items()), tuple(to_branch))
        for index in range(head, pc + 1):
            loops[index] = loop
    return loops


class DecodedOp:
    """Everything the core needs from one static instruction."""

    __slots__ = (
        "instr",
        "kind",
        "route",
        "sources",
        "dest",
        "writes",
        "target",
        "is_branch",
        "is_mark",
        "is_halt",
        "needs_values",
        "compute",
        "atomic",
        "spin",
        "dispatch",
        "retire",
    )

    def __init__(
        self,
        instr: Instruction,
        target: Optional[int],
        spin: Optional[SpinLoop] = None,
    ) -> None:
        self.instr = instr
        self.kind = next(
            (kind for cls, kind in _KINDS if isinstance(instr, cls)), "other"
        )
        memop = instr.is_mem and not instr.is_membar
        if memop:
            self.route = ROUTE_MEMQ
        elif instr.is_mark or instr.is_halt or instr.is_membar:
            self.route = ROUTE_UNTIMED
        elif instr.fu == FU_NONE:
            self.route = ROUTE_ISSUED
        else:
            self.route = ROUTE_ISSUE
        #: canonical source registers, ``sources()`` order
        self.sources: Tuple[str, ...] = instr.sources()
        #: ``destination()``: the instruction produces a result
        self.dest: Optional[str] = instr.destination()
        #: the register dispatch renames and commit writes (never ``r0``)
        self.writes: Optional[str] = None if self.dest == "r0" else self.dest
        #: a branch's resolved target index
        self.target = target
        self.is_branch = instr.is_branch
        self.is_mark = instr.is_mark
        self.is_halt = instr.is_halt
        #: dispatch stalls until every source value is known (a branch
        #: condition or a memory operand)
        self.needs_values = instr.is_branch or memop
        #: ``set``, ``cmp`` and ``alu``: the result from operand values (at
        #: dispatch when they are known, else at issue); None otherwise
        self.compute: Optional[Callable[[InFlight], int]] = _computer(
            instr, self.kind
        )
        #: executes at the head of the ROB even on cached space
        self.atomic = self.kind in ("swap", "sc")
        #: the register-only countdown loop this pc sits in, if any
        self.spin = spin
        #: the core's dispatch effect, ``(core, flight) -> None``, and
        #: retire handler, ``(core, head, now) -> bool`` (see _handlers)
        self.dispatch, self.retire = _handlers(self)


def _computer(instr: Instruction, kind: str) -> Optional[Callable[[InFlight], int]]:
    """The result closure of a ``set``, ``cmp`` or ``alu`` instruction,
    over the same :mod:`repro.isa.semantics` helpers the fast-forward tier
    binds; None for every other kind."""
    if kind == "set":
        value = instr.value & MASK64  # type: ignore[attr-defined]
        return lambda flight: value
    if kind not in ("cmp", "alu"):
        return None
    rs1: str = instr.rs1  # type: ignore[attr-defined]
    op2 = instr.operand2  # type: ignore[attr-defined]
    fn: Callable[[int, int], int]
    if kind == "cmp":
        fn = semantics.compare
    elif instr.fu == FU_FP:
        fn = semantics.FP_OPS[instr.op]  # type: ignore[attr-defined]
    else:
        fn = semantics.ALU_OPS[instr.op]  # type: ignore[attr-defined]
    if isinstance(op2, str):
        return lambda flight: fn(flight.operand(rs1), flight.operand(op2))
    return lambda flight: fn(flight.operand(rs1), op2)


def _handlers(record: DecodedOp) -> Tuple[Callable, Callable]:
    """The core's dispatch effect and retire handler for ``record``, by
    kind, route and opcode.  A memory operation's retire handler tests
    the page attribute (known only at dispatch) where its kind may be
    cached or uncached."""
    from repro.cpu.core import Core  # the core imports this module

    kind = record.kind
    if kind == "branch":
        op = record.instr.op  # type: ignore[attr-defined]
        dispatch = {
            "ba": Core._dispatch_ba,
            "brz": Core._dispatch_brz,
            "brnz": Core._dispatch_brnz,
        }.get(op, Core._dispatch_icc_branch)
        return dispatch, Core._retire_plain
    if record.route == ROUTE_MEMQ:
        return {
            "store": (Core._dispatch_store, Core._retire_store),
            "blockstore": (Core._dispatch_blockstore, Core._retire_uncached_store),
            "load": (Core._dispatch_load, Core._retire_load),
            "ll": (Core._dispatch_ll, Core._retire_cached_load),
            "swap": (Core._dispatch_swap, Core._retire_swap),
            "sc": (Core._dispatch_sc, Core._retire_store_conditional),
        }[kind]
    if record.route == ROUTE_UNTIMED:
        instr = record.instr
        if instr.is_mark:
            retire = Core._retire_mark
        elif instr.is_halt:
            retire = Core._retire_halt
        else:
            retire = Core._retire_membar
        return Core._dispatch_untimed, retire
    if record.compute is not None:
        return Core._dispatch_compute, Core._retire_plain
    if record.route == ROUTE_ISSUED:
        return Core._dispatch_issued, Core._retire_plain
    return Core._dispatch_nothing, Core._retire_plain


#: Records shared by every pc and program that repeat an instruction (and,
#: for a branch, its target, and the loop it closes or sits in): programs
#: are assembled from a few hundred distinct lines.  Cleared when full.
_RECORDS: Dict[
    Tuple[Instruction, Optional[int], Optional[SpinLoop]], DecodedOp
] = {}
_RECORDS_LIMIT = 4096


def decode_program(program: Program) -> List[DecodedOp]:
    """The per-pc table of a finalized ``program``, built on first use and
    kept on the program (:attr:`Program.decoded`), so it goes with it."""
    table = program.decoded
    if table is None:
        if not program.finalized:
            raise ProgramError("decode_program requires a finalized program")
        loops = _spin_loops(program)
        table = program.decoded = [
            _record(
                instr,
                program.target_of(instr)
                if isinstance(instr, BranchInstruction)
                else None,
                loops.get(pc),
            )
            for pc, instr in enumerate(program)
        ]
    return table


def _record(
    instr: Instruction, target: Optional[int], spin: Optional[SpinLoop]
) -> DecodedOp:
    key = (instr, target, spin)
    record = _RECORDS.get(key)
    if record is None:
        if len(_RECORDS) >= _RECORDS_LIMIT:
            _RECORDS.clear()
        record = _RECORDS[key] = DecodedOp(instr, target, spin)
    return record
