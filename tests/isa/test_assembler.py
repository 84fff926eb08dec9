"""The textual assembler, including the paper's own listing."""

import pytest

from repro.common.errors import AssemblyError
from repro.isa import assembler
from repro.isa.assembler import assemble
from repro.isa.instructions import (
    AluInstruction,
    BranchInstruction,
    CompareInstruction,
    LoadInstruction,
    MarkInstruction,
    MembarInstruction,
    SetInstruction,
    StoreInstruction,
    SwapInstruction,
)

PAPER_LISTING = """
.RETRY:
set 8, %l4          ! expected value
std %f0, [%o1]
std %f10, [%o1+40]
std %f12, [%o1+8]
swap [%o1], %l4     ! conditional flush
cmp %l4, 8          ! compare values
bnz .RETRY          ! retry on failure
halt
"""


class TestPaperListing:
    def test_assembles(self):
        program = assemble(PAPER_LISTING)
        assert len(program) == 8
        assert isinstance(program[0], SetInstruction)
        assert isinstance(program[1], StoreInstruction)
        assert program[1].size == 8
        assert isinstance(program[4], SwapInstruction)
        assert isinstance(program[5], CompareInstruction)
        branch = program[6]
        assert isinstance(branch, BranchInstruction)
        assert branch.op == "bne"  # bnz alias
        assert program.target_of(branch) == 0

    def test_offsets_parsed(self):
        program = assemble(PAPER_LISTING)
        assert program[2].offset == 40


class TestMemoryOperands:
    def test_plain(self):
        program = assemble("ld [%o1], %o2\nhalt")
        load = program[0]
        assert isinstance(load, LoadInstruction)
        assert load.base == "r9" and load.offset == 0 and load.size == 4

    def test_negative_offset(self):
        program = assemble("st %o2, [%o1-8]\nhalt")
        assert program[0].offset == -8

    def test_register_offset(self):
        program = assemble("ldx [%o1+%o3], %o2\nhalt")
        assert program[0].offset == "r11"

    def test_absolute_address(self):
        program = assemble("ldx [0x2000], %o2\nhalt")
        assert program[0].base == "r0" and program[0].offset == 0x2000

    def test_hex_offset(self):
        program = assemble("ldx [%o1+0x10], %o2\nhalt")
        assert program[0].offset == 16

    def test_bad_memref(self):
        with pytest.raises(AssemblyError):
            assemble("ld %o1, %o2\nhalt")


class TestSizes:
    @pytest.mark.parametrize(
        "mnemonic,size",
        [("ldub", 1), ("lduh", 2), ("ld", 4), ("ldx", 8), ("ldd", 8)],
    )
    def test_load_sizes(self, mnemonic, size):
        program = assemble(f"{mnemonic} [%o1], %o2\nhalt")
        assert program[0].size == size

    @pytest.mark.parametrize(
        "mnemonic,size",
        [("stb", 1), ("sth", 2), ("st", 4), ("stx", 8), ("std", 8)],
    )
    def test_store_sizes(self, mnemonic, size):
        program = assemble(f"{mnemonic} %o2, [%o1]\nhalt")
        assert program[0].size == size


class TestDirectivesAndSugar:
    def test_comments_and_blank_lines(self):
        program = assemble("\n! leading comment\n  nop // trailing\n\nhalt\n")
        assert len(program) == 2

    def test_label_shares_line(self):
        program = assemble("L1: nop\nba L1\nhalt")
        assert program.label_index("L1") == 0

    def test_mov_register_becomes_or(self):
        program = assemble("mov %o1, %o2\nhalt")
        alu = program[0]
        assert isinstance(alu, AluInstruction) and alu.op == "or"

    def test_mov_immediate_becomes_set(self):
        program = assemble("mov 42, %o2\nhalt")
        assert isinstance(program[0], SetInstruction)

    def test_membar_accepts_constraint_operand(self):
        program = assemble("membar #Sync\nhalt")
        assert isinstance(program[0], MembarInstruction)

    def test_mark(self):
        program = assemble("mark begin\nhalt")
        mark = program[0]
        assert isinstance(mark, MarkInstruction) and mark.label == "begin"

    def test_alu_three_operand_sparc_order(self):
        program = assemble("add %o1, 8, %o2\nhalt")
        alu = program[0]
        assert alu.rs1 == "r9" and alu.operand2 == 8 and alu.rd == "r10"


class TestErrors:
    def test_unknown_mnemonic_reports_line(self):
        with pytest.raises(AssemblyError) as exc:
            assemble("nop\nfrobnicate %o1\nhalt")
        assert exc.value.line == 2

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblyError):
            assemble("add %o1, %o2\nhalt")

    def test_undefined_label_caught_at_finalize(self):
        with pytest.raises(AssemblyError):
            assemble("ba .NOWHERE\nhalt")

    def test_bad_register_wrapped_as_assembly_error(self):
        with pytest.raises(AssemblyError):
            assemble("add %q1, 1, %o1\nhalt")

    def test_bad_integer(self):
        with pytest.raises(AssemblyError):
            assemble("set banana, %o1\nhalt")


class TestParseMemo:
    """Each distinct instruction line is parsed once and its frozen
    instruction shared; labels and errors stay per program and line."""

    def test_error_names_its_line_after_memoized_lines(self):
        good = "set 1, %o1\nadd %o1, 2, %o1\n"
        assemble(good + "halt")
        with pytest.raises(AssemblyError) as exc:
            assemble(good + "add %o1, 2, %q9\nhalt")
        assert exc.value.line == 3
        with pytest.raises(AssemblyError) as exc:
            assemble("nop\n" + good + "frobnicate %o1\nhalt")
        assert exc.value.line == 4

    def test_failed_line_is_not_cached(self):
        bad = "add %o1, 7, %q7"
        for lineno in (1, 3):
            with pytest.raises(AssemblyError) as exc:
                assemble("nop\n" * (lineno - 1) + bad + "\nhalt")
            assert exc.value.line == lineno
        assert bad not in assembler._PARSED

    def test_repeated_lines_share_one_instruction(self):
        first = assemble("add %o1, 3, %o1\nadd %o1, 3, %o1\nhalt")
        second = assemble("loop: add %o1, 3, %o1 ! comment\nhalt")
        assert first[0] is first[1] is second[0]

    def test_labels_resolve_per_program(self):
        first = assemble("top:\nnop\nbrnz %o1, top\nhalt")
        second = assemble("nop\nnop\ntop: nop\nbrnz %o1, top\nhalt")
        assert first[1] is second[3]
        assert first.target_of(first[1]) == 0
        assert second.target_of(second[3]) == 2

    def test_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(assembler, "_PARSED", {})
        monkeypatch.setattr(assembler, "_PARSED_LIMIT", 8)
        program = assemble(
            "".join(f"set {value}, %o1\n" for value in range(20)) + "halt"
        )
        assert [instr.value for instr in program[:20]] == list(range(20))
        assert len(assembler._PARSED) <= 8
