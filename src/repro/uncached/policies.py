"""Hardware combining policies for the uncached buffer.

The paper's baselines span the uncached store policies of real processors
(§2, §4.1).  Three are modeled faithfully:

:class:`BlockCombining`
    The paper's generic model: a store coalesces into any entry covering
    its block (subject to the ordering rules); a partially filled entry
    drains as naturally aligned power-of-two transactions.  With an
    8-byte block this degenerates to no combining at all.

:class:`R10000Accelerated`
    The MIPS R10000 uncached-accelerated buffer (§6): it "detects
    sequential access patterns and combines subsequent stores into a
    complete cache line if possible", "stops combining when it receives a
    store that does not match the current access pattern", and "issues a
    burst transaction only if an entire cache line could be combined,
    otherwise a series of single-beat transfers is used".

:class:`PowerPC620Pairs`
    The PowerPC 620 (§2): "combines up to two uncached stores of the same
    size to consecutive addresses into a single bus transaction" — and
    only when the pair is naturally aligned for the combined size.
"""

from __future__ import annotations

import abc
from typing import List, Tuple

from repro.common.config import UncachedBufferConfig
from repro.common.errors import ConfigError
from repro.uncached.entry import StoreEntry

Piece = Tuple[int, int, bytes]


class CombiningPolicy(abc.ABC):
    """How stores coalesce into entries and how entries hit the bus."""

    #: short identifier used in configs and reports
    name: str = "abstract"
    #: A store that fails to combine and allocates a new entry closes every
    #: older entry to combining (a pattern-tracking policy's broken pattern).
    new_entry_closes_older = False

    def __init__(self, entry_block: int) -> None:
        self.entry_block = entry_block

    @abc.abstractmethod
    def may_combine(self, entry: StoreEntry, address: int, size: int) -> bool:
        """May this store coalesce into ``entry``?  (The buffer has already
        checked the ordering rules; this is the policy-specific pattern
        check.)"""

    @abc.abstractmethod
    def plan(self, entry: StoreEntry) -> List[Piece]:
        """Decompose a draining entry into bus transactions."""


class BlockCombining(CombiningPolicy):
    """The paper's generic combining model (and the non-combining case)."""

    def __init__(self, entry_block: int) -> None:
        super().__init__(entry_block)
        self.name = "none" if entry_block <= 8 else f"combine{entry_block}"

    def may_combine(self, entry: StoreEntry, address: int, size: int) -> bool:
        if self.entry_block <= 8:
            return False
        return entry.can_accept(address, size)

    def plan(self, entry: StoreEntry) -> List[Piece]:
        return entry.transactions()


class R10000Accelerated(CombiningPolicy):
    """Strictly sequential pattern detection; all-or-nothing bursts."""

    name = "r10000"
    # A store that broke the pattern stops all previous combining.
    new_entry_closes_older = True

    def may_combine(self, entry: StoreEntry, address: int, size: int) -> bool:
        if entry.closed or not entry.can_accept(address, size):
            return False
        # Only the exact next sequential address continues the pattern.
        return address == entry.last_end

    def plan(self, entry: StoreEntry) -> List[Piece]:
        if entry.is_full_contiguous:
            return [(entry.base, entry.block_size, bytes(entry.data))]
        # Pattern incomplete: one single-beat transfer per original store.
        pieces: List[Piece] = []
        for address, size in entry.pieces:
            offset = address - entry.base
            pieces.append((address, size, bytes(entry.data[offset : offset + size])))
        return pieces


class PowerPC620Pairs(CombiningPolicy):
    """At most two same-size consecutive stores per transaction."""

    name = "ppc620"

    def __init__(self, entry_block: int = 16) -> None:
        if entry_block != 16:
            raise ConfigError("the PowerPC 620 pairs doublewords: block is 16")
        super().__init__(entry_block)

    def may_combine(self, entry: StoreEntry, address: int, size: int) -> bool:
        if entry.closed or not entry.can_accept(address, size):
            return False
        if len(entry.pieces) != 1:
            return False
        prev_address, prev_size = entry.pieces[0]
        if prev_size != size or address != prev_address + size:
            return False
        # The combined transaction must be naturally aligned.
        return prev_address % (2 * size) == 0

    def plan(self, entry: StoreEntry) -> List[Piece]:
        return entry.transactions()


def make_policy(config: UncachedBufferConfig) -> CombiningPolicy:
    """Build the policy named by ``config.policy``."""
    if config.policy == "block":
        return BlockCombining(config.combine_block)
    if config.policy == "r10000":
        return R10000Accelerated(config.combine_block)
    if config.policy == "ppc620":
        return PowerPC620Pairs(config.combine_block)
    raise ConfigError(f"unknown combining policy {config.policy!r}")
