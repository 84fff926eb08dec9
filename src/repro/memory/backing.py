"""Sparse byte-addressable backing store.

Holds the functional contents of the simulated physical address space.  The
store is sparse (page-granular ``bytearray`` chunks allocated on first touch)
so device apertures at high addresses cost nothing.  Integers are stored
big-endian, matching SPARC.

Every functional write goes through :meth:`BackingStore.write_bytes`:
cached stores and swaps, a squash's undo, bus writes and the fast-forward
tier.  A core asleep in a spin loop watches the word its loop reads
(:meth:`BackingStore.watch`), and a write that changes that word's bytes
wakes it before they land (see :meth:`repro.cpu.core.Core.tick`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.common.errors import MemoryError_

_CHUNK_BITS = 12
_CHUNK_SIZE = 1 << _CHUNK_BITS
_CHUNK_MASK = _CHUNK_SIZE - 1


class BackingStore:
    """Functional memory contents, independent of any timing model."""

    def __init__(self) -> None:
        self._chunks: Dict[int, bytearray] = {}
        #: 8-aligned word address -> the watchers to wake before a write
        #: changes it (see :meth:`watch`); None while nothing is watched
        self.watchers: Optional[Dict[int, List[Any]]] = None

    def _chunk(self, address: int) -> bytearray:
        key = address >> _CHUNK_BITS
        chunk = self._chunks.get(key)
        if chunk is None:
            chunk = bytearray(_CHUNK_SIZE)
            self._chunks[key] = chunk
        return chunk

    def read_bytes(self, address: int, length: int) -> bytes:
        if address < 0 or length < 0:
            raise MemoryError_(f"bad read [{address:#x}, +{length}]")
        out = bytearray(length)
        cursor = 0
        while cursor < length:
            addr = address + cursor
            offset = addr & _CHUNK_MASK
            take = min(length - cursor, _CHUNK_SIZE - offset)
            chunk = self._chunks.get(addr >> _CHUNK_BITS)
            if chunk is not None:
                out[cursor : cursor + take] = chunk[offset : offset + take]
            cursor += take
        return bytes(out)

    def write_bytes(self, address: int, data: bytes) -> None:
        if address < 0:
            raise MemoryError_(f"bad write at {address:#x}")
        if self.watchers is not None:
            self._wake_watchers(address, data)
        cursor = 0
        length = len(data)
        while cursor < length:
            addr = address + cursor
            offset = addr & _CHUNK_MASK
            take = min(length - cursor, _CHUNK_SIZE - offset)
            self._chunk(addr)[offset : offset + take] = data[cursor : cursor + take]
            cursor += take

    def watch(self, word: int, watcher: Any) -> None:
        """Call ``watcher.wake()`` before any write changes a byte of the
        8-byte word at ``word`` (8-aligned), until :meth:`unwatch`.  A
        write of the bytes already there wakes nobody."""
        watchers = self.watchers
        if watchers is None:
            watchers = self.watchers = {}
        watchers.setdefault(word, []).append(watcher)

    def unwatch(self, word: int, watcher: Any) -> None:
        watchers = self.watchers
        assert watchers is not None
        listed = watchers[word]
        listed.remove(watcher)
        if not listed:
            del watchers[word]
            if not watchers:
                self.watchers = None

    def _wake_watchers(self, address: int, data: bytes) -> None:
        """Wake the watchers of each watched word ``data`` changes."""
        assert self.watchers is not None
        end = address + len(data)
        for word, listed in list(self.watchers.items()):
            low, high = max(word, address), min(word + 8, end)
            if low < high and self.read_bytes(low, high - low) != bytes(
                data[low - address : high - address]
            ):
                for watcher in list(listed):
                    watcher.wake()

    def read_int(self, address: int, size: int) -> int:
        """Read a ``size``-byte big-endian unsigned integer."""
        return int.from_bytes(self.read_bytes(address, size), "big")

    def write_int(self, address: int, value: int, size: int) -> None:
        """Write a ``size``-byte big-endian unsigned integer (value wraps)."""
        value &= (1 << (8 * size)) - 1
        self.write_bytes(address, value.to_bytes(size, "big"))

    def fill(self, address: int, length: int, byte: int = 0) -> None:
        """Set a byte range to a constant value."""
        self.write_bytes(address, bytes([byte & 0xFF]) * length)

    @property
    def touched_bytes(self) -> int:
        """Bytes of host memory allocated so far (for tests/diagnostics)."""
        return len(self._chunks) * _CHUNK_SIZE

    def snapshot(self) -> Dict[int, bytes]:
        """Canonical image of all nonzero memory: chunk base address ->
        chunk bytes.  All-zero chunks are omitted, so two stores that
        merely *touched* different addresses but hold identical contents
        compare equal — the final-memory equivalence the differential
        harness asserts."""
        return {
            key << _CHUNK_BITS: bytes(chunk)
            for key, chunk in sorted(self._chunks.items())
            if any(chunk)
        }
