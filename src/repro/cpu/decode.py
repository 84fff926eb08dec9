"""Per-pc decode table for the detailed core.

What the pipeline asks of an instruction at dispatch, routing, retirement
and commit is fixed once its program is finalized: the canonical registers
it reads and writes, the queue it enters, the kind of work it does and,
for a branch, the resolved target.  :func:`decode_program` computes that
once per :class:`~repro.isa.program.Program` (immutable once finalized),
so the core reads :class:`DecodedOp` fields instead of calling
``sources()``, ``destination()``, ``isinstance`` chains and
``Program.target_of`` for every dynamic instruction.  A record only
restates the instruction's own API.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.isa.instructions import (
    AluInstruction,
    BlockStoreInstruction,
    BranchInstruction,
    CompareInstruction,
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
        "computes",
        "atomic",
    )

    def __init__(self, instr: Instruction, target: Optional[int]) -> None:
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
        #: the result is computed from operand values (at dispatch when
        #: they are known, else at issue)
        self.computes = self.kind in ("set", "cmp", "alu")
        #: executes at the head of the ROB even on cached space
        self.atomic = self.kind in ("swap", "sc")


#: Per-program tables, dropped with their program.
_TABLES: "WeakKeyDictionary[Program, List[DecodedOp]]" = WeakKeyDictionary()

#: Records shared by every pc and program that repeat an instruction (and,
#: for a branch, its target): programs are assembled from a few hundred
#: distinct lines.  Cleared when full.
_RECORDS: Dict[Tuple[Instruction, Optional[int]], DecodedOp] = {}
_RECORDS_LIMIT = 4096


def decode_program(program: Program) -> List[DecodedOp]:
    """The per-pc table of a finalized ``program``, built on first use and
    dropped with the program."""
    table = _TABLES.get(program)
    if table is None:
        if not program.finalized:
            raise ProgramError("decode_program requires a finalized program")
        table = [
            _record(
                instr,
                program.target_of(instr)
                if isinstance(instr, BranchInstruction)
                else None,
            )
            for instr in program
        ]
        _TABLES[program] = table
    return table


def _record(instr: Instruction, target: Optional[int]) -> DecodedOp:
    key = (instr, target)
    record = _RECORDS.get(key)
    if record is None:
        if len(_RECORDS) >= _RECORDS_LIMIT:
            _RECORDS.clear()
        record = _RECORDS[key] = DecodedOp(instr, target)
    return record
