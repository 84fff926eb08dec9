"""Run statistics: named counters, per-event records, and the bandwidth
window used to report "bytes per bus cycle" the way the paper does.

The paper's bandwidth metric (§4.3.1) counts bytes transferred divided by bus
cycles from the start of the first transaction to the *end of the last
transaction*; a turnaround cycle following the final transaction is explicitly
excluded ("the transfer is considered complete at the end of the last
transaction").  :class:`BandwidthWindow` implements exactly that accounting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

#: Every counter the simulator itself bumps, by component prefix.  Reads
#: of a name outside this namespace (and never bumped) raise ``KeyError``
#: — a typo'd lookup like ``stats.get("csb.flushs")`` must fail loudly,
#: not quietly return 0.  The namespace is documented in
#: docs/modeling.md ("The counter namespace").
COUNTER_NAMESPACE = frozenset(
    {
        # bus.*: system-bus activity
        "bus.transactions",
        "bus.bytes_wire",
        "bus.bursts",
        # core.*: pipeline activity
        "core.dispatched",
        "core.issued",
        "core.retired",
        "core.branches",
        "core.cached_loads",
        "core.cached_stores",
        "core.cached_swaps",
        "core.sc_failures",
        "core.squashed",
        "core.uncached_stores",
        "core.uncached_store_stalls",
        "core.frontend_value_stalls",
        "core.memq_full_stalls",
        "core.rob_full_stalls",
        # csb.*: conditional store buffer
        "csb.stores",
        "csb.sequences_started",
        "csb.flushes",
        "csb.flush_conflicts",
        "csb.flush_stalls",
        "csb.store_stalls",
        # uncached.*: conventional uncached buffer
        "uncached.entries_allocated",
        "uncached.stores_combined",
        "uncached.block_stores",
        "uncached.full_stalls",
        # refill.*: cache refills on the bus (refills_use_bus=True, or
        # the D-cache with mem.bus_traffic)
        "refill.requests",
        "refill.issued",
        # writeback.*: dirty-victim write-backs from the D-cache
        "writeback.requests",
        "writeback.issued",
        # faults.*: injected faults (repro.faults; zero when disabled)
        "faults.bus_nack",
        "faults.bus_stall",
        "faults.device_timeout",
        "faults.csb_spurious_abort",
        "faults.refill_stall",
    }
)


def known_counters() -> List[str]:
    """Every counter name the simulator can bump, sorted."""
    return sorted(COUNTER_NAMESPACE)


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


@dataclass
class BandwidthWindow:
    """Tracks the bus-cycle window covering a stream of transactions.

    ``open(cycle)`` is called at a transaction's first address cycle and
    ``close(cycle)`` at its last data cycle.  ``bytes_per_cycle`` divides the
    bytes recorded by the inclusive cycle span first-open .. last-close.
    """

    first_cycle: Optional[int] = None
    last_cycle: Optional[int] = None
    total_bytes: int = 0
    transactions: int = 0

    def open(self, cycle: int) -> None:
        if self.first_cycle is None:
            self.first_cycle = cycle

    def close(self, cycle: int, nbytes: int) -> None:
        if self.first_cycle is None:
            raise ValueError("close() before any open()")
        self.last_cycle = cycle
        self.total_bytes += nbytes
        self.transactions += 1

    @property
    def cycles(self) -> int:
        """Inclusive bus-cycle span of the window (0 if nothing happened)."""
        if self.first_cycle is None or self.last_cycle is None:
            return 0
        return self.last_cycle - self.first_cycle + 1

    @property
    def bytes_per_cycle(self) -> float:
        cycles = self.cycles
        if cycles == 0:
            return 0.0
        return self.total_bytes / cycles


#: Tail percentiles MetricsSnapshot exports for trace replay.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def percentile_label(p: float) -> str:
    """``50.0`` -> ``"p50"``, ``99.9`` -> ``"p99.9"`` (stable JSON keys)."""
    text = f"{p:g}"
    return f"p{text}"


def _nearest_rank(p: float, count: int) -> int:
    """``ceil(p/100 * count)`` in exact integer arithmetic (percentiles
    are specified to at most one decimal place, so tenths are exact)."""
    tenths = round(p * 10)
    return max(1, -(-tenths * count // 1000))


class LatencyHistogram:
    """Bounded-memory histogram of non-negative integer samples.

    Values below ``2**precision_bits`` are counted exactly; larger values
    keep their top ``precision_bits`` significant bits (relative
    quantization error below ``2**-precision_bits``), so the key set — and
    therefore memory — stays bounded no matter how many samples stream
    through.  Small runs are exact: with the default 10 bits, every
    latency under 1024 cycles lands in its own bucket.

    Percentiles use the nearest-rank definition (the smallest recorded
    value with at least ``ceil(p/100 * count)`` samples at or below it),
    which is deterministic and exact on small N.
    """

    __slots__ = ("precision_bits", "count", "total", "_counts", "_max")

    def __init__(self, precision_bits: int = 10) -> None:
        if precision_bits < 1:
            raise ValueError("precision_bits must be >= 1")
        self.precision_bits = precision_bits
        self.count = 0
        self.total = 0
        self._counts: Dict[int, int] = {}
        self._max = 0

    def _quantize(self, value: int) -> int:
        if value < (1 << self.precision_bits):
            return value
        shift = value.bit_length() - self.precision_bits
        return (value >> shift) << shift

    def add(self, value: int) -> None:
        value = int(value)
        if value < 0:
            raise ValueError(f"latency sample must be >= 0, got {value}")
        self.count += 1
        self.total += value
        if value > self._max:
            self._max = value
        bucket = self._quantize(value)
        self._counts[bucket] = self._counts.get(bucket, 0) + 1

    def extend(self, values: Iterable[int]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def max(self) -> int:
        return self._max

    @property
    def buckets(self) -> Dict[int, int]:
        """Bucket floor -> sample count, sorted (bounded size)."""
        return dict(sorted(self._counts.items()))

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile (0 < p <= 100) of the recorded samples."""
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if not self.count:
            raise ValueError("percentile of an empty histogram")
        rank = _nearest_rank(p, self.count)
        seen = 0
        for bucket in sorted(self._counts):
            seen += self._counts[bucket]
            if seen >= rank:
                return bucket
        return self._max  # pragma: no cover - rank <= count always returns

    def percentiles(
        self, ps: Tuple[float, ...] = TAIL_PERCENTILES
    ) -> Dict[str, int]:
        """``{"p50": ..., "p99.9": ...}`` — empty dict when no samples."""
        if not self.count:
            return {}
        return {percentile_label(p): self.percentile(p) for p in ps}


class ReservoirSample:
    """Seeded fixed-size uniform sample of a value stream (Algorithm R).

    Below ``capacity`` samples the reservoir holds every value, so
    percentiles are exact; past it each new value replaces a uniformly
    chosen slot.  The random stream is owned by this instance and seeded
    at construction, so identical input yields an identical reservoir.
    """

    __slots__ = ("capacity", "count", "_values", "_rng")

    def __init__(self, capacity: int = 1024, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity = capacity
        self.count = 0
        self._values: List[int] = []
        self._rng = random.Random(seed)

    def add(self, value: int) -> None:
        self.count += 1
        if len(self._values) < self.capacity:
            self._values.append(value)
            return
        slot = self._rng.randrange(self.count)
        if slot < self.capacity:
            self._values[slot] = value

    @property
    def values(self) -> List[int]:
        return list(self._values)

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile of the sampled values (exact while the
        stream fits the reservoir)."""
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if not self._values:
            raise ValueError("percentile of an empty reservoir")
        ordered = sorted(self._values)
        return ordered[_nearest_rank(p, len(ordered)) - 1]


@dataclass
class TransactionRecord:
    """One bus transaction as observed by the stats collector.

    ``size`` is the wire size (bytes moved across the bus, including any
    zero padding of a CSB burst); ``useful_bytes`` is the payload the
    program actually stored.  The paper's bandwidth metric counts useful
    bytes — that is what penalizes the CSB's always-full-line bursts on
    small transfers.
    """

    start_cycle: int
    end_cycle: int
    address: int
    size: int
    useful_bytes: int
    kind: str
    burst: bool
    #: Initiating core (-1 for non-core initiators such as refill or DMA).
    core_id: int = -1


class _CondensedTransactions:
    """Aggregates of transaction records folded away by
    :meth:`StatsCollector.condense_transactions` — everything the
    collector's analysis methods need, with the per-record list gone."""

    __slots__ = (
        "count",
        "busy_cycles",
        "first_cycle",
        "last_cycle",
        "wire_bytes",
        "useful_bytes",
        "size_histograms",
        "bytes_by_kind",
        "per_core",
    )

    def __init__(self) -> None:
        self.count = 0
        self.busy_cycles = 0
        self.first_cycle: Optional[int] = None
        self.last_cycle: Optional[int] = None
        self.wire_bytes = 0
        self.useful_bytes = 0
        #: kind -> {wire size -> count}
        self.size_histograms: Dict[str, Dict[int, int]] = {}
        self.bytes_by_kind: Dict[str, int] = {}
        self.per_core: Dict[int, Dict[str, int]] = {}

    def fold(self, record: TransactionRecord) -> None:
        self.count += 1
        self.busy_cycles += record.end_cycle - record.start_cycle + 1
        if self.first_cycle is None or record.start_cycle < self.first_cycle:
            self.first_cycle = record.start_cycle
        if self.last_cycle is None or record.end_cycle > self.last_cycle:
            self.last_cycle = record.end_cycle
        self.wire_bytes += record.size
        self.useful_bytes += record.useful_bytes
        histogram = self.size_histograms.setdefault(record.kind, {})
        histogram[record.size] = histogram.get(record.size, 0) + 1
        self.bytes_by_kind[record.kind] = (
            self.bytes_by_kind.get(record.kind, 0) + record.size
        )
        entry = self.per_core.setdefault(
            record.core_id,
            {"transactions": 0, "wire_bytes": 0, "useful_bytes": 0},
        )
        entry["transactions"] += 1
        entry["wire_bytes"] += record.size
        entry["useful_bytes"] += record.useful_bytes


class StatsCollector:
    """Aggregates counters, retire-cycle marks, and bus activity for a run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self.marks: Dict[str, int] = {}
        self.transactions: List[TransactionRecord] = []
        self.uncached_store_window = BandwidthWindow()
        # Set only by condense_transactions(); ordinary runs keep the full
        # per-record list and this stays None.
        self._condensed: Optional[_CondensedTransactions] = None

    def counter(self, name: str) -> Counter:
        """Return (creating if needed) the counter called ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def bump(self, name: str, amount: int = 1) -> None:
        self.counter(name).add(amount)

    def live_counters(self) -> Iterable[Counter]:
        """Every counter minted so far, in creation order: the live
        objects, not a snapshot of their values."""
        return self._counters.values()

    def get(self, name: str) -> int:
        """The value of counter ``name`` (0 if it was never bumped).

        Writes (:meth:`bump`, :meth:`counter`) may mint any name — ad-hoc
        counters are a feature — but a *read* of a name that was neither
        bumped nor belongs to :data:`COUNTER_NAMESPACE` can only be a
        typo, and raises ``KeyError`` listing the known names.
        """
        counter = self._counters.get(name)
        if counter is not None:
            return counter.value
        if name in COUNTER_NAMESPACE:
            return 0
        raise KeyError(
            f"unknown counter {name!r}; known counters: "
            f"{known_counters()}; counters bumped this run: "
            f"{sorted(self._counters)}"
        )

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def mark(self, label: str, cycle: int) -> None:
        """Record the retire cycle of a ``mark`` pseudo-instruction.

        Repeated marks with the same label keep the latest cycle; benchmark
        kernels use distinct labels when they need several measurement points.
        """
        self.marks[label] = cycle

    def record_transaction(self, record: TransactionRecord) -> None:
        self.transactions.append(record)
        if record.kind in ("uncached_store", "csb_flush"):
            self.uncached_store_window.open(record.start_cycle)
            self.uncached_store_window.close(record.end_cycle, record.useful_bytes)

    def condense_transactions(self) -> int:
        """Fold the per-record transaction list into bounded aggregates.

        Streaming replay calls this between trace windows so a
        million-transaction run never materializes a million
        :class:`TransactionRecord` objects.  Every analysis method merges
        the condensed aggregates with whatever live records arrived since,
        so results are identical to keeping the full list; only the
        per-record detail (exact cycles of each transaction) is gone.
        Returns the number of records folded away.
        """
        if not self.transactions:
            return 0
        condensed = self._condensed
        if condensed is None:
            condensed = self._condensed = _CondensedTransactions()
        for record in self.transactions:
            condensed.fold(record)
        folded = len(self.transactions)
        self.transactions.clear()
        return folded

    @property
    def transaction_count(self) -> int:
        """All recorded transactions, condensed and live."""
        count = len(self.transactions)
        if self._condensed is not None:
            count += self._condensed.count
        return count

    def span(self, start_label: str, end_label: str) -> int:
        """CPU cycles between two marks (end - start)."""
        try:
            return self.marks[end_label] - self.marks[start_label]
        except KeyError as exc:
            raise KeyError(
                f"mark {exc.args[0]!r} was never recorded; "
                f"have {sorted(self.marks)}"
            ) from None

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters, for reporting and assertions."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    # -- bus activity analysis -------------------------------------------------

    def size_histogram(self, kind: Optional[str] = None) -> Dict[int, int]:
        """Wire-size -> count over recorded transactions (optionally one
        kind).  The shape of this histogram is the whole story of a
        combining policy: all-8s means no combining, a spike at the line
        size means full bursts."""
        histogram: Dict[int, int] = {}
        if self._condensed is not None:
            for record_kind, sizes in self._condensed.size_histograms.items():
                if kind is not None and record_kind != kind:
                    continue
                for size, count in sizes.items():
                    histogram[size] = histogram.get(size, 0) + count
        for record in self.transactions:
            if kind is not None and record.kind != kind:
                continue
            histogram[record.size] = histogram.get(record.size, 0) + 1
        return dict(sorted(histogram.items()))

    def bytes_by_kind(self) -> Dict[str, int]:
        """Total wire bytes per transaction kind."""
        totals: Dict[str, int] = {}
        if self._condensed is not None:
            totals.update(self._condensed.bytes_by_kind)
        for record in self.transactions:
            totals[record.kind] = totals.get(record.kind, 0) + record.size
        return dict(sorted(totals.items()))

    def transactions_by_core(self) -> Dict[int, Dict[str, int]]:
        """Per initiating core: transaction count, wire and useful bytes.

        Key ``-1`` collects non-core initiators (refill engine, DMA), so
        the values always sum to the whole-run totals.
        """
        breakdown: Dict[int, Dict[str, int]] = {}
        if self._condensed is not None:
            for core_id, entry in self._condensed.per_core.items():
                breakdown[core_id] = dict(entry)
        for record in self.transactions:
            entry = breakdown.setdefault(
                record.core_id,
                {"transactions": 0, "wire_bytes": 0, "useful_bytes": 0},
            )
            entry["transactions"] += 1
            entry["wire_bytes"] += record.size
            entry["useful_bytes"] += record.useful_bytes
        return dict(sorted(breakdown.items()))

    def bus_busy_cycles(self) -> int:
        """Bus cycles occupied by any transaction (transactions never
        overlap on a single bus, so the per-record spans simply add)."""
        busy = sum(r.end_cycle - r.start_cycle + 1 for r in self.transactions)
        if self._condensed is not None:
            busy += self._condensed.busy_cycles
        return busy

    def bus_utilization(self) -> float:
        """Busy fraction of the bus over the observed activity span."""
        firsts = [r.start_cycle for r in self.transactions]
        lasts = [r.end_cycle for r in self.transactions]
        if self._condensed is not None and self._condensed.count:
            firsts.append(self._condensed.first_cycle)  # type: ignore[arg-type]
            lasts.append(self._condensed.last_cycle)  # type: ignore[arg-type]
        if not firsts:
            return 0.0
        span = max(lasts) - min(firsts) + 1
        return self.bus_busy_cycles() / span

    def efficiency(self) -> float:
        """Useful payload bytes over wire bytes (padding overhead)."""
        wire = sum(r.size for r in self.transactions)
        useful = sum(r.useful_bytes for r in self.transactions)
        if self._condensed is not None:
            wire += self._condensed.wire_bytes
            useful += self._condensed.useful_bytes
        if wire == 0:
            return 0.0
        return useful / wire

    def __repr__(self) -> str:
        return f"StatsCollector({self.as_dict()!r})"
