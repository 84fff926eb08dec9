"""Entries of the conventional uncached buffer.

A :class:`StoreEntry` covers one combining block: a block-aligned base, a
byte-validity mask (an int, bit ``i`` for byte ``base + i``), and the data
bytes.  A :class:`LoadEntry` is a single uncached load; it blocks the FIFO
until its data returns, preserving the strong ordering uncached accesses
require.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.common.bitops import block_base, decompose_aligned
from repro.common.errors import SimulationError


class StoreEntry:
    """One combining block's worth of pending store data."""

    __slots__ = (
        "base",
        "block_size",
        "data",
        "valid",
        "sequence",
        "frozen",
        "closed",
        "pieces",
    )

    def __init__(self, base: int, block_size: int, sequence: int) -> None:
        if base != block_base(base, block_size):
            raise SimulationError(f"entry base {base:#x} not block aligned")
        self.base = base
        self.block_size = block_size
        self.data = bytearray(block_size)
        #: bit ``i`` set: byte ``base + i`` holds store data
        self.valid = 0
        self.sequence = sequence
        #: Set once the system interface starts transferring the entry;
        #: a frozen entry accepts no further combining.
        self.frozen = False
        #: Set by pattern-tracking policies (e.g. R10000) once the access
        #: pattern broke; a closed entry accepts no further combining.
        self.closed = False
        #: The constituent stores, as (absolute address, size), in arrival
        #: order — pattern policies and single-beat drains need them.
        self.pieces: List[Tuple[int, int]] = []

    def covers(self, address: int) -> bool:
        return self.base <= address < self.base + self.block_size

    def overlaps(self, address: int, size: int) -> bool:
        """True if any byte of [address, address+size) is already valid."""
        return bool(self.valid >> (address - self.base) & ((1 << size) - 1))

    def can_accept(self, address: int, size: int) -> bool:
        """A store may coalesce here: same block, not frozen, no overlap.

        Overlapping uncached stores must each reach the device (they may
        have side effects), so overlap forbids merging.
        """
        if self.frozen or not self.covers(address):
            return False
        if address + size > self.base + self.block_size:
            return False
        return not self.overlaps(address, size)

    def write(self, address: int, data: bytes) -> None:
        size = len(data)
        if not self.can_accept(address, size):
            raise SimulationError(
                f"cannot coalesce store at {address:#x} into entry {self.base:#x}"
            )
        offset = address - self.base
        self.data[offset : offset + size] = data
        self.valid |= ((1 << size) - 1) << offset
        self.pieces.append((address, size))

    @property
    def valid_bytes(self) -> int:
        return bin(self.valid).count("1")

    @property
    def last_end(self) -> Optional[int]:
        """Absolute address just past the most recent store (None if empty)."""
        if not self.pieces:
            return None
        address, size = self.pieces[-1]
        return address + size

    @property
    def is_full_contiguous(self) -> bool:
        """True when the whole block is valid."""
        return self.valid == (1 << self.block_size) - 1

    def runs(self) -> List[Tuple[int, int]]:
        """Contiguous valid runs as (absolute address, length) pairs."""
        result: List[Tuple[int, int]] = []
        valid = self.valid
        offset = 0
        while valid:
            gap = (valid & -valid).bit_length() - 1  # clear bits below the run
            valid >>= gap
            offset += gap
            length = (~valid & (valid + 1)).bit_length() - 1  # set bits
            result.append((self.base + offset, length))
            valid >>= length
            offset += length
        return result

    def transactions(self) -> List[Tuple[int, int, bytes]]:
        """Decompose into naturally aligned power-of-two (addr, size, data)
        transactions, in address order."""
        pieces: List[Tuple[int, int, bytes]] = []
        for run_addr, run_len in self.runs():
            for addr, size in decompose_aligned(run_addr, run_len, self.block_size):
                offset = addr - self.base
                pieces.append((addr, size, bytes(self.data[offset : offset + size])))
        return pieces


@dataclass
class LoadEntry:
    """A single pending uncached load (or the read half of an uncached
    swap, or a synchronization broadcast)."""

    address: int
    size: int
    sequence: int
    on_data: Callable[[bytes, int], None] = field(repr=False)
    issued: bool = False
    kind: str = "uncached_load"
