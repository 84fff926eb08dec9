"""The core's per-pc decode table restates the ISA's own API.

:func:`repro.cpu.decode.decode_program` is what dispatch, routing,
retirement and commit read instead of ``sources()``, ``destination()``,
``isinstance`` chains and ``Program.target_of``; every record must agree
with those calls for every shipped kernel and the random-program corpus,
and carry the core's dispatch effect and retire handler for its class and
opcode.
"""

from __future__ import annotations

import pytest

from repro.cpu import decode
from repro.cpu.core import Core
from repro.cpu.decode import (
    ROUTE_ISSUE,
    ROUTE_ISSUED,
    ROUTE_MEMQ,
    ROUTE_UNTIMED,
    decode_program,
)
from repro.isa.assembler import assemble
from repro.isa.instructions import (
    AluInstruction,
    BlockStoreInstruction,
    BranchInstruction,
    CompareInstruction,
    FU_NONE,
    HaltInstruction,
    Instruction,
    LoadInstruction,
    LoadLinkedInstruction,
    MarkInstruction,
    MembarInstruction,
    SetInstruction,
    StoreConditionalInstruction,
    StoreInstruction,
    SwapInstruction,
)
from repro.isa.program import Program, ProgramError
from repro.workloads.random_programs import generate_program

from tests.conftest import registry_targets

_TARGETS = registry_targets()

_KIND = {
    SwapInstruction: "swap",
    LoadLinkedInstruction: "ll",
    StoreConditionalInstruction: "sc",
    LoadInstruction: "load",
    BlockStoreInstruction: "blockstore",
    StoreInstruction: "store",
    BranchInstruction: "branch",
    SetInstruction: "set",
    CompareInstruction: "cmp",
    AluInstruction: "alu",
}


def _expected_route(instr: Instruction) -> str:
    if instr.is_mem and not instr.is_membar:
        return ROUTE_MEMQ
    if instr.is_mark or instr.is_halt or instr.is_membar:
        return ROUTE_UNTIMED
    return ROUTE_ISSUED if instr.fu == FU_NONE else ROUTE_ISSUE


def _expected_handlers(instr: Instruction) -> tuple:
    """(dispatch effect, retire handler) the core runs for ``instr``."""
    if isinstance(instr, BranchInstruction):
        dispatch = {
            "ba": Core._dispatch_ba,
            "brz": Core._dispatch_brz,
            "brnz": Core._dispatch_brnz,
        }.get(instr.op, Core._dispatch_icc_branch)
        return dispatch, Core._retire_plain
    for cls, handlers in (
        (SwapInstruction, (Core._dispatch_swap, Core._retire_swap)),
        (LoadLinkedInstruction, (Core._dispatch_ll, Core._retire_cached_load)),
        (
            StoreConditionalInstruction,
            (Core._dispatch_sc, Core._retire_store_conditional),
        ),
        (LoadInstruction, (Core._dispatch_load, Core._retire_load)),
        (
            BlockStoreInstruction,
            (Core._dispatch_blockstore, Core._retire_uncached_store),
        ),
        (StoreInstruction, (Core._dispatch_store, Core._retire_store)),
        (MarkInstruction, (Core._dispatch_untimed, Core._retire_mark)),
        (HaltInstruction, (Core._dispatch_untimed, Core._retire_halt)),
        (MembarInstruction, (Core._dispatch_untimed, Core._retire_membar)),
        (SetInstruction, (Core._dispatch_compute, Core._retire_plain)),
        (CompareInstruction, (Core._dispatch_compute, Core._retire_plain)),
        (AluInstruction, (Core._dispatch_compute, Core._retire_plain)),
    ):
        if isinstance(instr, cls):
            return handlers
    return Core._dispatch_nothing, Core._retire_plain


def _check_table(program: Program) -> None:
    table = decode_program(program)
    assert len(table) == len(program)
    for pc, (record, instr) in enumerate(zip(table, program)):
        assert record.instr == instr, pc
        assert record.kind == _KIND.get(type(instr), "other")
        assert record.route == _expected_route(instr)
        assert record.sources == instr.sources()
        assert record.dest == instr.destination()
        assert record.writes == (
            None if instr.destination() in (None, "r0") else instr.destination()
        )
        if isinstance(instr, BranchInstruction):
            assert record.target == program.target_of(instr)
        else:
            assert record.target is None
        assert record.is_branch == instr.is_branch
        assert record.is_mark == instr.is_mark
        assert record.is_halt == instr.is_halt
        assert record.needs_values == (
            instr.is_branch or (instr.is_mem and not instr.is_membar)
        )
        assert (record.compute is not None) == isinstance(
            instr, (AluInstruction, SetInstruction, CompareInstruction)
        )
        assert (record.dispatch, record.retire) == _expected_handlers(instr), pc
        assert record.atomic == isinstance(
            instr, (SwapInstruction, StoreConditionalInstruction)
        )


@pytest.mark.parametrize("name", sorted(_TARGETS))
def test_registry_target_records_match_the_isa(name):
    _check_table(assemble(_TARGETS[name].source, name=name))


@pytest.mark.parametrize("seed", range(50))
def test_random_program_records_match_the_isa(seed):
    _check_table(assemble(generate_program(seed), name=f"random-{seed}"))


def test_table_is_built_once_per_program():
    source = "top:\nadd %r1, 1, %r1\nbrnz %r2, top\nhalt\n"
    program = assemble(source)
    assert decode_program(program) is decode_program(program)
    assert decode_program(assemble(source)) is not decode_program(program)


def test_branch_targets_resolve_per_program():
    # The same branch line shares its instruction, but each program
    # resolves the label against its own layout.
    first = assemble("loop:\nnop\nba loop\nhalt\n")
    second = assemble("nop\nloop:\nnop\nba loop\nhalt\n")
    assert decode_program(first)[1].target == 0
    assert decode_program(second)[2].target == 1


def test_unfinalized_program_is_refused():
    program = Program("open")
    program.add(HaltInstruction())
    with pytest.raises(ProgramError):
        decode_program(program)


def test_record_memo_stays_bounded(monkeypatch):
    monkeypatch.setattr(decode, "_RECORDS", {})
    monkeypatch.setattr(decode, "_RECORDS_LIMIT", 4)
    program = assemble(
        "".join(f"set {value}, %r1\n" for value in range(10)) + "halt\n"
    )
    _check_table(program)
    assert len(decode._RECORDS) <= 4


def test_spin_loops_are_marked_at_every_pc():
    # The CSB backoff's countdown with a bystander register, an
    # up-counter and the ba self-loop are register-only loops; a loop
    # with a store or a compare in its body, or whose brnz tests a
    # register the body leaves alone, is not.  The same `sub` line
    # outside a loop keeps its own record.
    program = assemble(
        "sub %l6, 1, %l6\n"
        ".SPIN:\nadd %l5, 2, %l5\nsub %l6, 1, %l6\nbrnz %l6, .SPIN\n"
        ".UP:\nadd %l4, 3, %l4\nbrnz %l4, .UP\n"
        ".STORE:\nstx %l6, [%o0]\nsub %l6, 1, %l6\nbrnz %l6, .STORE\n"
        ".CMP:\nsub %l6, 1, %l6\ncmp %l6, 0\nbne .CMP\n"
        ".OTHER:\nadd %l5, 1, %l5\nbrnz %l6, .OTHER\n"
        "loop: ba loop\nhalt\n"
    )
    table = decode_program(program)
    spin = table[1].spin
    assert spin is not None
    assert [record.spin for record in table[1:4]] == [spin] * 3
    assert (spin.head, spin.branch, spin.cond) == (1, 3, "r22")
    assert dict(spin.steps) == {"r21": 2, "r22": (1 << 64) - 1}
    assert spin.to_branch == ((1 << 64) - 1, (1 << 64) - 1, 0)
    up = table[4].spin
    assert up is not None and dict(up.steps) == {"r20": 3}
    assert table[0].spin is None and table[0] is not table[2]
    assert all(record.spin is None for record in table[6:14])
    ba = table[14].spin
    assert ba is not None and (ba.head, ba.branch, ba.cond) == (14, 14, None)
    assert table[15].spin is None
