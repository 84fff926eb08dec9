"""Functional semantics: 64-bit ALU, condition codes, branch predicates."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import semantics
from repro.common.errors import SimulationError

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
#: Operands beyond the register width too: immediates may be negative.
WIDE = st.integers(min_value=-(1 << 70), max_value=1 << 70)


def chained_alu(op: str, a: int, b: int) -> int:
    """``semantics.alu`` before it dispatched through ``ALU_OPS``, verbatim."""
    a &= semantics.MASK64
    b &= semantics.MASK64
    if op == "add":
        return (a + b) & semantics.MASK64
    if op == "sub":
        return (a - b) & semantics.MASK64
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "sll":
        return (a << (b & 63)) & semantics.MASK64
    if op == "srl":
        return a >> (b & 63)
    if op == "sra":
        return semantics.to_unsigned(semantics.to_signed(a) >> (b & 63))
    if op == "mulx":
        return (a * b) & semantics.MASK64
    raise SimulationError(f"unknown ALU op {op!r}")


def chained_fp_alu(op: str, a: int, b: int) -> int:
    """``semantics.fp_alu`` before it dispatched through ``FP_OPS``, verbatim."""
    if op == "fmov":
        return a & semantics.MASK64
    if op == "fadd":
        return (a + b) & semantics.MASK64
    if op == "fsub":
        return (a - b) & semantics.MASK64
    if op == "fmul":
        return (a * b) & semantics.MASK64
    raise SimulationError(f"unknown FP op {op!r}")


class TestAlu:
    def test_basic_ops(self):
        assert semantics.alu("add", 2, 3) == 5
        assert semantics.alu("sub", 2, 3) == (1 << 64) - 1
        assert semantics.alu("and", 0b1100, 0b1010) == 0b1000
        assert semantics.alu("or", 0b1100, 0b1010) == 0b1110
        assert semantics.alu("xor", 0b1100, 0b1010) == 0b0110
        assert semantics.alu("sll", 1, 4) == 16
        assert semantics.alu("srl", 16, 4) == 1
        assert semantics.alu("mulx", 3, 5) == 15

    def test_sra_preserves_sign(self):
        minus_two = semantics.to_unsigned(-2)
        assert semantics.to_signed(semantics.alu("sra", minus_two, 1)) == -1

    def test_shift_amount_masked_to_6_bits(self):
        assert semantics.alu("sll", 1, 64) == 1  # 64 & 63 == 0

    def test_unknown_op(self):
        with pytest.raises(SimulationError):
            semantics.alu("div", 1, 1)

    @pytest.mark.parametrize("op", semantics.ALU_OP_NAMES)
    @given(a=WIDE, b=WIDE)
    def test_property_table_matches_the_chain(self, op, a, b):
        assert semantics.ALU_OPS[op](a, b) == chained_alu(op, a, b)
        assert semantics.alu(op, a, b) == chained_alu(op, a, b)

    @pytest.mark.parametrize("op", semantics.FP_OP_NAMES)
    @given(a=WIDE, b=WIDE)
    def test_property_fp_table_matches_the_chain(self, op, a, b):
        assert semantics.FP_OPS[op](a, b) == chained_fp_alu(op, a, b)
        assert semantics.fp_alu(op, a, b) == chained_fp_alu(op, a, b)

    @given(a=U64, b=U64)
    def test_property_add_matches_python_mod_2_64(self, a, b):
        assert semantics.alu("add", a, b) == (a + b) % (1 << 64)

    @given(a=U64, b=U64)
    def test_property_sub_then_add_roundtrips(self, a, b):
        assert semantics.alu("add", semantics.alu("sub", a, b), b) == a


class TestSignConversion:
    @given(value=st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    def test_property_signed_roundtrip(self, value):
        assert semantics.to_signed(semantics.to_unsigned(value)) == value


class TestCompare:
    def test_equal_sets_z(self):
        assert semantics.compare(5, 5) & semantics.CC_Z

    def test_less_than_sets_borrow(self):
        flags = semantics.compare(3, 5)
        assert flags & semantics.CC_C
        assert not flags & semantics.CC_Z

    @given(
        a=st.integers(min_value=-(1 << 62), max_value=(1 << 62) - 1),
        b=st.integers(min_value=-(1 << 62), max_value=(1 << 62) - 1),
    )
    def test_property_signed_branches_agree_with_python(self, a, b):
        flags = semantics.compare(
            semantics.to_unsigned(a), semantics.to_unsigned(b)
        )
        assert semantics.branch_taken("be", flags) == (a == b)
        assert semantics.branch_taken("bne", flags) == (a != b)
        assert semantics.branch_taken("bl", flags) == (a < b)
        assert semantics.branch_taken("bge", flags) == (a >= b)
        assert semantics.branch_taken("bg", flags) == (a > b)
        assert semantics.branch_taken("ble", flags) == (a <= b)

    @given(a=U64, b=U64)
    def test_property_unsigned_branches_agree_with_python(self, a, b):
        flags = semantics.compare(a, b)
        assert semantics.branch_taken("bgu", flags) == (a > b)
        assert semantics.branch_taken("bleu", flags) == (a <= b)


class TestBranchPredicates:
    def test_ba_always(self):
        assert semantics.branch_taken("ba", 0)

    def test_register_branches(self):
        assert semantics.branch_taken("brz", reg_value=0)
        assert not semantics.branch_taken("brz", reg_value=1)
        assert semantics.branch_taken("brnz", reg_value=7)

    def test_unknown_branch(self):
        with pytest.raises(SimulationError):
            semantics.branch_taken("bonkers", 0)
