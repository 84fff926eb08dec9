"""Program container: an instruction sequence with symbolic labels.

The simulator addresses instructions by index (a perfect instruction fetch
path is assumed — the paper's kernels are tiny loops that would live entirely
in any L1 I-cache).  Labels are resolved to indices when the program is
finalized; branch targets are looked up through the program rather than
stored in the (immutable) instructions.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.common.errors import ReproError
from repro.isa.instructions import BranchInstruction, HaltInstruction, Instruction


class ProgramError(ReproError):
    """Label/branch inconsistencies detected while building a program."""


class Program:
    """An ordered list of instructions plus a label table.

    Build incrementally with :meth:`add` / :meth:`label`, then call
    :meth:`finalize` (or use :func:`repro.isa.assembler.assemble`, which
    finalizes for you).  Iteration yields instructions in order.
    """

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._finalized = False
        #: The detailed core's per-pc decode table, built on first use by
        #: :func:`repro.cpu.decode.decode_program` and dropped with the
        #: program.
        self.decoded: Optional[list] = None

    def add(self, instruction: Instruction) -> int:
        """Append an instruction; returns its index."""
        self._mutable()
        self._instructions.append(instruction)
        return len(self._instructions) - 1

    def extend(self, instructions: Iterable[Instruction]) -> None:
        for instruction in instructions:
            self.add(instruction)

    def label(self, name: str) -> None:
        """Define ``name`` to point at the next instruction added."""
        self._mutable()
        if name in self._labels:
            raise ProgramError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)

    def finalize(self) -> "Program":
        """Validate: every branch target exists, program ends in a halt."""
        if self._finalized:
            return self
        if not self._instructions:
            raise ProgramError("empty program")
        for index, instruction in enumerate(self._instructions):
            if isinstance(instruction, BranchInstruction):
                if instruction.target not in self._labels:
                    raise ProgramError(
                        f"instruction {index}: undefined label {instruction.target!r}"
                    )
                if self._labels[instruction.target] >= len(self._instructions):
                    raise ProgramError(
                        f"label {instruction.target!r} points past the end"
                    )
        if not isinstance(self._instructions[-1], HaltInstruction):
            raise ProgramError("program must end with halt")
        self._finalized = True
        return self

    def _mutable(self) -> None:
        if self._finalized:
            raise ProgramError("program is finalized")

    @property
    def finalized(self) -> bool:
        return self._finalized

    def content_key(self) -> tuple:
        """Hashable identity of the finalized instruction stream.

        Instructions are frozen dataclasses and labels resolve to indices,
        so two programs with equal keys decode identically — the
        fast-forward tier uses this to cache pre-decoded programs.
        """
        if not self._finalized:
            raise ProgramError("content_key requires a finalized program")
        return (
            tuple(self._instructions),
            tuple(sorted(self._labels.items())),
        )

    def target_of(self, instruction: BranchInstruction) -> int:
        """Resolved index of a branch's target label."""
        try:
            return self._labels[instruction.target]
        except KeyError:
            raise ProgramError(f"undefined label {instruction.target!r}") from None

    def label_index(self, name: str) -> int:
        try:
            return self._labels[name]
        except KeyError:
            raise ProgramError(f"undefined label {name!r}") from None

    def fetch(self, index: int) -> Optional[Instruction]:
        """Instruction at ``index`` or None when past the end."""
        if 0 <= index < len(self._instructions):
            return self._instructions[index]
        return None

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self._instructions[index]

    def __repr__(self) -> str:
        return f"Program({self.name!r}, {len(self)} instructions)"
