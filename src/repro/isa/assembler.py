"""A small two-pass assembler for the SPARC-flavoured ISA.

Accepted syntax mirrors the paper's listing in §3.2::

    .RETRY:
    set 8, %l4          ! expected value
    std %f0, [%o1]
    std %f10, [%o1+40]
    swap [%o1], %l4     ! conditional flush
    cmp %l4, 8
    bnz .RETRY          ! retry on failure
    halt

Comments start with ``!`` or ``//``.  A label is any token ending in ``:``;
it may share a line with an instruction.  Memory operands are
``[reg]``, ``[reg+imm]``, ``[reg-imm]``, ``[reg+reg]`` or ``[imm]``.
``bnz``/``bz`` are accepted as aliases for ``bne``/``be`` (the paper's
listing uses ``bnz`` after ``cmp``).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple, Union

from repro.common.errors import AssemblyError
from repro.isa.instructions import (
    AluInstruction,
    BlockStoreInstruction,
    BranchInstruction,
    CompareInstruction,
    HaltInstruction,
    Instruction,
    LoadInstruction,
    LoadLinkedInstruction,
    MarkInstruction,
    MembarInstruction,
    NopInstruction,
    SetInstruction,
    StoreConditionalInstruction,
    StoreInstruction,
    SwapInstruction,
    ALU_OPS,
    FP_OPS,
)
from repro.isa.program import Program

Operand = Union[str, int]

_LOAD_SIZES = {"ldub": 1, "lduh": 2, "ld": 4, "ldx": 8, "ldd": 8}
_STORE_SIZES = {"stb": 1, "sth": 2, "st": 4, "stx": 8, "std": 8}
_BRANCH_ALIASES = {"bz": "be", "bnz": "bne"}
_CC_BRANCHES = ("ba", "be", "bne", "bg", "bge", "bl", "ble", "bgu", "bleu")

_MEM_RE = re.compile(
    r"^\[\s*(?P<base>%?\w+)\s*(?:(?P<sign>[+-])\s*(?P<off>%?\w+)\s*)?\]$"
)
_LABEL_RE = re.compile(r"^(\.?\w+):\s*(.*)$")

#: Instruction text (comment and labels removed) -> its parsed, frozen
#: :class:`Instruction`, shared by every line and program that repeats
#: the text; labels stay per program.  Only successful parses are kept,
#: so an error always names its own line.  Cleared when full.
_PARSED: Dict[str, Instruction] = {}
_PARSED_LIMIT = 4096


def assemble(source: str, name: str = "program") -> Program:
    """Assemble ``source`` into a finalized :class:`Program`."""
    program = Program(name)
    parsed = _PARSED
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        line = _consume_labels(program, line, lineno)
        if not line:
            continue
        instruction = parsed.get(line)
        if instruction is None:
            instruction = _parse_line(line, lineno)
            if len(parsed) >= _PARSED_LIMIT:
                parsed.clear()
            parsed[line] = instruction
        program.add(instruction)
    try:
        return program.finalize()
    except Exception as exc:
        raise AssemblyError(str(exc)) from exc


def _parse_line(line: str, lineno: int) -> Instruction:
    try:
        return _parse_instruction(line, lineno)
    except AssemblyError:
        raise
    except Exception as exc:  # operand validation errors from the ISA
        raise AssemblyError(f"{line!r}: {exc}", lineno) from exc


def _strip_comment(line: str) -> str:
    for marker in ("!", "//"):
        index = line.find(marker)
        if index >= 0:
            line = line[:index]
    return line


def _consume_labels(program: Program, line: str, lineno: int) -> str:
    """Peel off leading ``name:`` labels; returns the remaining text."""
    while ":" in line:
        match = _LABEL_RE.match(line)
        if not match:
            return line
        try:
            program.label(match.group(1))
        except Exception as exc:
            raise AssemblyError(str(exc), lineno) from exc
        line = match.group(2)
    return line


def _split_operands(text: str) -> List[str]:
    if not text.strip():
        return []
    return [part.strip() for part in text.split(",")]


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError(f"expected integer, got {token!r}", lineno) from None


def _parse_operand(token: str, lineno: int) -> Operand:
    """A register (``%o1`` / ``r9``) or an immediate."""
    if token.startswith("%") or re.match(r"^[a-zA-Z]", token):
        return token
    return _parse_int(token, lineno)


def _parse_memref(token: str, lineno: int) -> Tuple[str, Operand]:
    match = _MEM_RE.match(token)
    if not match:
        raise AssemblyError(f"bad memory operand {token!r}", lineno)
    base_tok = match.group("base")
    off_tok: Optional[str] = match.group("off")
    sign = -1 if match.group("sign") == "-" else 1
    if not base_tok.startswith("%") and base_tok[0].isdigit():
        # [imm] — absolute address via the zero register.
        if off_tok is not None:
            raise AssemblyError(f"bad memory operand {token!r}", lineno)
        return "r0", _parse_int(base_tok, lineno)
    if off_tok is None:
        return base_tok, 0
    if off_tok.startswith("%") or off_tok[0].isalpha():
        if sign < 0:
            raise AssemblyError("register offsets cannot be negated", lineno)
        return base_tok, off_tok
    return base_tok, sign * _parse_int(off_tok, lineno)


def _expect(operands: List[str], count: int, mnemonic: str, lineno: int) -> None:
    if len(operands) != count:
        raise AssemblyError(
            f"{mnemonic} expects {count} operand(s), got {len(operands)}", lineno
        )


def _parse_instruction(line: str, lineno: int) -> Instruction:
    parts = line.split(None, 1)
    mnemonic = parts[0].lower()
    operands = _split_operands(parts[1]) if len(parts) > 1 else []

    if mnemonic in ("nop",):
        _expect(operands, 0, mnemonic, lineno)
        return NopInstruction()
    if mnemonic == "halt":
        _expect(operands, 0, mnemonic, lineno)
        return HaltInstruction()
    if mnemonic == "membar":
        # Accept and ignore an ordering-constraint operand like "#Sync".
        return MembarInstruction()
    if mnemonic == "mark":
        _expect(operands, 1, mnemonic, lineno)
        return MarkInstruction(label=operands[0])
    if mnemonic == "set":
        _expect(operands, 2, mnemonic, lineno)
        return SetInstruction(value=_parse_int(operands[0], lineno), rd=operands[1])
    if mnemonic == "mov":
        _expect(operands, 2, mnemonic, lineno)
        src = _parse_operand(operands[0], lineno)
        if isinstance(src, int):
            return SetInstruction(value=src, rd=operands[1])
        return AluInstruction(op="or", rs1=src, operand2=0, rd=operands[1])
    if mnemonic == "cmp":
        _expect(operands, 2, mnemonic, lineno)
        return CompareInstruction(
            rs1=operands[0], operand2=_parse_operand(operands[1], lineno)
        )
    if mnemonic in ALU_OPS:
        _expect(operands, 3, mnemonic, lineno)
        return AluInstruction(
            op=mnemonic,
            rs1=operands[0],
            operand2=_parse_operand(operands[1], lineno),
            rd=operands[2],
        )
    if mnemonic in FP_OPS:
        if mnemonic == "fmov":
            _expect(operands, 2, mnemonic, lineno)
            return AluInstruction(
                op="fmov", rs1=operands[0], operand2=operands[0], rd=operands[1]
            )
        _expect(operands, 3, mnemonic, lineno)
        return AluInstruction(
            op=mnemonic, rs1=operands[0], operand2=operands[1], rd=operands[2]
        )
    if mnemonic in _BRANCH_ALIASES or mnemonic in _CC_BRANCHES:
        _expect(operands, 1, mnemonic, lineno)
        op = _BRANCH_ALIASES.get(mnemonic, mnemonic)
        return BranchInstruction(op=op, target=operands[0])
    if mnemonic in ("brz", "brnz"):
        _expect(operands, 2, mnemonic, lineno)
        return BranchInstruction(op=mnemonic, target=operands[1], rs1=operands[0])
    if mnemonic in _LOAD_SIZES:
        _expect(operands, 2, mnemonic, lineno)
        base, offset = _parse_memref(operands[0], lineno)
        return LoadInstruction(
            base=base, offset=offset, rd=operands[1], size=_LOAD_SIZES[mnemonic]
        )
    if mnemonic in _STORE_SIZES:
        _expect(operands, 2, mnemonic, lineno)
        base, offset = _parse_memref(operands[1], lineno)
        return StoreInstruction(
            base=base, offset=offset, rs=operands[0], size=_STORE_SIZES[mnemonic]
        )
    if mnemonic == "swap":
        _expect(operands, 2, mnemonic, lineno)
        base, offset = _parse_memref(operands[0], lineno)
        return SwapInstruction(base=base, offset=offset, rd=operands[1])
    if mnemonic == "stblk":
        _expect(operands, 1, mnemonic, lineno)
        base, offset = _parse_memref(operands[0], lineno)
        return BlockStoreInstruction(base=base, offset=offset)
    if mnemonic == "ll":
        _expect(operands, 2, mnemonic, lineno)
        base, offset = _parse_memref(operands[0], lineno)
        return LoadLinkedInstruction(base=base, offset=offset, rd=operands[1])
    if mnemonic == "sc":
        _expect(operands, 3, mnemonic, lineno)
        base, offset = _parse_memref(operands[1], lineno)
        return StoreConditionalInstruction(
            base=base, offset=offset, rs=operands[0], rd=operands[2]
        )
    raise AssemblyError(f"unknown mnemonic {mnemonic!r}", lineno)
