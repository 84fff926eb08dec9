"""Byte validity as an int bitmask answers exactly what the per-byte list
of bools it replaced answered.

:class:`~repro.uncached.entry.StoreEntry` and the CSB line buffer keep bit
``i`` for byte ``i``.  The ``list_*`` functions below are the list-of-bools
implementations they replaced, kept verbatim (as functions of the list);
seeded random writes drive both and every query must agree after each
write.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import pytest

from repro.common.bitops import decompose_aligned
from repro.common.config import CSBConfig
from repro.common.stats import StatsCollector
from repro.uncached.csb import ConditionalStoreBuffer
from repro.uncached.entry import StoreEntry

SIZES = (1, 2, 4, 8)


def list_overlaps(valid: List[bool], base: int, address: int, size: int) -> bool:
    start = address - base
    return any(valid[start : start + size])


def list_runs(valid: List[bool], base: int) -> List[Tuple[int, int]]:
    result: List[Tuple[int, int]] = []
    start: Optional[int] = None
    for i, bit in enumerate(valid + [False]):
        if bit and start is None:
            start = i
        elif not bit and start is not None:
            result.append((base + start, i - start))
            start = None
    return result


def list_transactions(
    valid: List[bool], base: int, data: bytearray, block_size: int
) -> List[Tuple[int, int, bytes]]:
    pieces: List[Tuple[int, int, bytes]] = []
    for run_addr, run_len in list_runs(valid, base):
        for addr, size in decompose_aligned(run_addr, run_len, block_size):
            offset = addr - base
            pieces.append((addr, size, bytes(data[offset : offset + size])))
    return pieces


def list_covering_span(valid: List[bool], line_size: int) -> tuple:
    first = valid.index(True)
    last = len(valid) - 1 - valid[::-1].index(True)
    size = 1
    while True:
        offset = (first // size) * size
        if offset + size > last:
            return (offset, size)
        size *= 2
        if size >= line_size:
            return (0, line_size)


def _store(rng: random.Random, block: int) -> Tuple[int, int]:
    """A naturally aligned (offset, size) inside a block."""
    size = rng.choice([s for s in SIZES if s <= block])
    return rng.randrange(0, block, size), size


@pytest.mark.parametrize("seed", range(40))
def test_store_entry_matches_the_list_of_bools(seed):
    rng = random.Random(seed)
    block = rng.choice((16, 32, 64, 128))
    base = 0x4000 + block * rng.randrange(8)
    entry = StoreEntry(base, block, sequence=1)
    valid = [False] * block
    for _ in range(3 * block):
        offset, size = _store(rng, block)
        address = base + offset
        assert entry.overlaps(address, size) == list_overlaps(
            valid, base, address, size
        )
        if not entry.can_accept(address, size):
            continue
        payload = bytes(rng.randrange(256) for _ in range(size))
        entry.write(address, payload)
        for i in range(offset, offset + size):
            valid[i] = True
        assert entry.valid_bytes == sum(valid)
        assert entry.is_full_contiguous == all(valid)
        assert entry.runs() == list_runs(valid, base)
        assert entry.transactions() == list_transactions(
            valid, base, entry.data, block
        )
    assert entry.valid_bytes > 0


@pytest.mark.parametrize("seed", range(40))
def test_csb_line_buffer_matches_the_list_of_bools(seed):
    rng = random.Random(seed)
    line = rng.choice((32, 64, 128))
    csb = ConditionalStoreBuffer(CSBConfig(line_size=line), StatsCollector())
    base = 0x8000 + line * rng.randrange(8)
    valid = [False] * line
    for _ in range(rng.randrange(1, line)):
        offset, size = _store(rng, line)
        csb.store(base + offset, bytes(size), pid=1)
        for i in range(offset, offset + size):
            valid[i] = True
        assert csb.valid_bytes == sum(valid)
        assert csb._covering_span() == list_covering_span(valid, line)
        assert csb.export_state()[3] == tuple(valid)
    restored = ConditionalStoreBuffer(CSBConfig(line_size=line), StatsCollector())
    restored.import_state(csb.export_state())
    assert restored._covering_span() == list_covering_span(valid, line)
    assert restored.valid_bytes == sum(valid)
