"""Alignment and block arithmetic helpers.

Bus transactions in this model must be naturally aligned powers of two
(paper §4.1: "the system bus supports transfer sizes ranging from 1 byte to a
complete cache line in powers of two. All transactions must be naturally
aligned").  :func:`decompose_aligned` implements the greedy decomposition of an
arbitrary byte run into such transactions; it is what limits how well the
hardware combining buffer can use the bus, and it produces the counterintuitive
effects the paper notes (a smaller combining buffer occasionally beating a
larger one on medium transfers).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.errors import AlignmentError


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of ``alignment`` (a power of two)."""
    _require_pow2(alignment)
    return value & ~(alignment - 1)


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to a multiple of ``alignment`` (a power of two)."""
    _require_pow2(alignment)
    return (value + alignment - 1) & ~(alignment - 1)


def is_aligned(value: int, alignment: int) -> bool:
    """Return True if ``value`` is a multiple of ``alignment``."""
    _require_pow2(alignment)
    return (value & (alignment - 1)) == 0


def block_base(address: int, block_size: int) -> int:
    """Return the base address of the ``block_size``-aligned block holding
    ``address``."""
    return align_down(address, block_size)


def block_offset(address: int, block_size: int) -> int:
    """Return the offset of ``address`` within its ``block_size`` block."""
    _require_pow2(block_size)
    return address & (block_size - 1)


def decompose_aligned(
    address: int, length: int, max_size: int
) -> List[Tuple[int, int]]:
    """Split a byte run into naturally aligned power-of-two pieces.

    Returns ``(address, size)`` pairs covering ``[address, address+length)``
    exactly, where every piece is a power of two no larger than ``max_size``
    and is aligned to its own size.  The decomposition is greedy: each step
    takes the largest legal piece at the current address, which matches how a
    system interface carves a partially filled write buffer entry into bus
    transactions.

    >>> decompose_aligned(0, 24, 64)
    [(0, 16), (16, 8)]
    >>> decompose_aligned(8, 24, 64)
    [(8, 8), (16, 16)]
    """
    _require_pow2(max_size)
    if length < 0:
        raise AlignmentError(f"negative length {length}")
    pieces: List[Tuple[int, int]] = []
    cursor = address
    remaining = length
    while remaining > 0:
        size = max_size
        # size stays a power of two, so cursor & (size - 1) is is_aligned.
        while size > 1 and (cursor & (size - 1) or size > remaining):
            size //= 2
        pieces.append((cursor, size))
        cursor += size
        remaining -= size
    return pieces


def _require_pow2(value: int) -> None:
    if not is_power_of_two(value):
        raise AlignmentError(f"{value} is not a positive power of two")
