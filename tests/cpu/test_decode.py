"""The core's per-pc decode table restates the ISA's own API.

:func:`repro.cpu.decode.decode_program` is what dispatch, routing,
retirement and commit read instead of ``sources()``, ``destination()``,
``isinstance`` chains and ``Program.target_of``; every record must agree
with those calls for every shipped kernel and the random-program corpus.
"""

from __future__ import annotations

import pytest

from repro.cpu import decode
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
        assert record.computes == isinstance(
            instr, (AluInstruction, SetInstruction, CompareInstruction)
        )
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
