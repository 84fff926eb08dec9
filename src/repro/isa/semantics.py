"""Functional semantics: pure helpers the core uses to compute results.

All integer arithmetic is modulo 2**64 (values are stored unsigned); the
condition codes follow the SPARC icc definition (negative, zero, overflow,
carry of the 64-bit result, which is sufficient for the ``cmp``/branch idioms
the kernels use).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.common.errors import SimulationError

MASK64 = (1 << 64) - 1
SIGN64 = 1 << 63

#: Condition-code bit positions.
CC_N = 8
CC_Z = 4
CC_V = 2
CC_C = 1


def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned value as signed."""
    value &= MASK64
    return value - (1 << 64) if value & SIGN64 else value


def to_unsigned(value: int) -> int:
    """Wrap a Python int into unsigned 64-bit representation."""
    return value & MASK64


#: Integer ALU operations on unsigned 64-bit operands, by mnemonic: each
#: result is that of the operands masked to 64 bits first.  The detailed
#: core and the fast-forward decoder bind one of these callables per
#: decoded instruction instead of branching on the mnemonic string every
#: execution, and :func:`alu` dispatches through the same table, so the
#: two tiers compute identical results by construction.
ALU_OPS: Dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: (a + b) & MASK64,
    "sub": lambda a, b: (a - b) & MASK64,
    "and": lambda a, b: a & b & MASK64,
    "or": lambda a, b: (a | b) & MASK64,
    "xor": lambda a, b: (a ^ b) & MASK64,
    "sll": lambda a, b: (a << (b & 63)) & MASK64,
    "srl": lambda a, b: (a & MASK64) >> (b & 63),
    "sra": lambda a, b: to_unsigned(to_signed(a) >> (b & 63)),
    "mulx": lambda a, b: (a * b) & MASK64,
}

#: FP operations on raw 64-bit patterns.  The microbenchmarks only move FP
#: data around (the paper's kernel stores ``%f`` registers it never
#: computes with), so FP arithmetic is modeled on the bit patterns as
#: integers — latency is what matters, not IEEE results.
FP_OPS: Dict[str, Callable[[int, int], int]] = {
    "fmov": lambda a, b: a & MASK64,
    "fadd": lambda a, b: (a + b) & MASK64,
    "fsub": lambda a, b: (a - b) & MASK64,
    "fmul": lambda a, b: (a * b) & MASK64,
}

#: Integer ALU mnemonics :func:`alu` implements.
ALU_OP_NAMES = tuple(ALU_OPS)

#: FP mnemonics :func:`fp_alu` implements.
FP_OP_NAMES = tuple(FP_OPS)


def alu(op: str, a: int, b: int) -> int:
    """Compute an integer ALU operation on unsigned 64-bit operands."""
    fn = ALU_OPS.get(op)
    if fn is None:
        raise SimulationError(f"unknown ALU op {op!r}")
    return fn(a, b)


def fp_alu(op: str, a: int, b: int) -> int:
    """An FP operation on raw 64-bit patterns (see :data:`FP_OPS`)."""
    fn = FP_OPS.get(op)
    if fn is None:
        raise SimulationError(f"unknown FP op {op!r}")
    return fn(a, b)


def compare(a: int, b: int) -> int:
    """Compute icc flags for ``a - b`` (as SPARC ``cmp`` does via subcc)."""
    a &= MASK64
    b &= MASK64
    result = (a - b) & MASK64
    flags = 0
    if result & SIGN64:
        flags |= CC_N
    if result == 0:
        flags |= CC_Z
    # Signed overflow: operands have different signs and the result's sign
    # differs from the minuend's.
    if ((a ^ b) & SIGN64) and ((a ^ result) & SIGN64):
        flags |= CC_V
    if b > a:  # borrow
        flags |= CC_C
    return flags


def branch_taken(op: str, cc: int = 0, reg_value: int = 0) -> bool:
    """Evaluate a branch condition against condition codes or a register."""
    n = bool(cc & CC_N)
    z = bool(cc & CC_Z)
    v = bool(cc & CC_V)
    c = bool(cc & CC_C)
    if op == "ba":
        return True
    if op == "be":
        return z
    if op == "bne":
        return not z
    if op == "bg":
        return not (z or (n != v))
    if op == "ble":
        return z or (n != v)
    if op == "bge":
        return n == v
    if op == "bl":
        return n != v
    if op == "bgu":
        return not (c or z)
    if op == "bleu":
        return c or z
    if op == "brz":
        return (reg_value & MASK64) == 0
    if op == "brnz":
        return (reg_value & MASK64) != 0
    raise SimulationError(f"unknown branch op {op!r}")
