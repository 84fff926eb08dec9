"""Store bandwidth on a non-idle bus (extension of §4.3.1).

The paper measures uncached store bandwidth on a completely idle bus and
treats the mandatory-turnaround panel as "an approximation of a heavily
loaded bus".  With refill occupancy enabled
(``MemoryHierarchyConfig.refills_use_bus``), this study measures the real
thing: the store stream shares the bus with the cache-line refills of a
missing load stream interleaved into the same program.  Refills get bus
priority, so every miss steals a full burst slot from the uncached stream.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.common.config import (
    BusConfig,
    CSBConfig,
    DOUBLEWORD,
    MemoryHierarchyConfig,
    SystemConfig,
    UncachedBufferConfig,
)
from repro.common.tables import Table
from repro.isa.assembler import assemble
from repro.memory.layout import DRAM_BASE, IO_COMBINING_BASE, IO_UNCACHED_BASE
from repro.sim.system import System
from repro.evaluation.runner import (
    PointJob,
    SimJob,
    SweepRunner,
    default_runner,
    execute_job,
)
from repro.evaluation.schemes import SCHEME_CSB, scheme_block

#: Cached array the interfering loads stream over (never revisited, so
#: every load misses all the way to memory).
MISS_ARRAY_BASE = DRAM_BASE + 0x10_0000

LOADED_SCHEMES = ("none", "combine64", "csb")


def stores_with_miss_stream_kernel(
    total_bytes: int,
    line_size: int,
    csb: bool,
    misses_per_line: int = 1,
) -> str:
    """The §4.2 store stream with ``misses_per_line`` cache-missing loads
    interleaved per line of stores."""
    base = IO_COMBINING_BASE if csb else IO_UNCACHED_BASE
    lines: List[str] = [
        f"set {base}, %o1",
        f"set {MISS_ARRAY_BASE}, %o2",
        "set 0x77, %l0",
    ]
    dwords = total_bytes // DOUBLEWORD
    per_line = line_size // DOUBLEWORD
    miss_index = 0
    group = 0
    emitted = 0
    while emitted < dwords:
        in_group = min(per_line, dwords - emitted)
        if csb:
            lines.append(f".RETRY{group}:")
            lines.append(f"set {in_group}, %l4")
        for i in range(in_group):
            lines.append(f"stx %l0, [%o1+{(emitted + i) * DOUBLEWORD}]")
        if csb:
            lines.append(f"swap [%o1+{emitted * DOUBLEWORD}], %l4")
            lines.append(f"cmp %l4, {in_group}")
            lines.append(f"bnz .RETRY{group}")
        for _ in range(misses_per_line):
            lines.append(f"ldx [%o2+{miss_index * line_size}], %l1")
            miss_index += 1
        emitted += in_group
        group += 1
    lines += ["membar", "halt"]
    return "\n".join(lines)


def _loaded_config(scheme: str, refills_use_bus: bool) -> SystemConfig:
    block = 8 if scheme == SCHEME_CSB else scheme_block(scheme)
    return SystemConfig(
        memory=MemoryHierarchyConfig.with_line_size(
            64, refills_use_bus=refills_use_bus
        ),
        bus=BusConfig(cpu_ratio=6, max_burst_bytes=64),
        uncached=UncachedBufferConfig(combine_block=min(block, 64)),
        csb=CSBConfig(line_size=64),
    )


def miss_interleaved_job(
    scheme: str, total_bytes: int, refills_use_bus: bool
) -> SimJob:
    """Describe one store stream with interleaved misses as a SimJob."""
    label = "loaded" if refills_use_bus else "idle"
    return SimJob(
        config=_loaded_config(scheme, refills_use_bus),
        kernel=stores_with_miss_stream_kernel(
            total_bytes, 64, csb=(scheme == SCHEME_CSB)
        ),
        name=f"loaded-bus-misses-{scheme}-{label}-{total_bytes}",
    )


def loaded_bandwidth_point(
    scheme: str, total_bytes: int, refills_use_bus: bool
) -> float:
    return execute_job(miss_interleaved_job(scheme, total_bytes, refills_use_bus))


def miss_interleaved_table(
    sizes: Iterable[int] = (256, 512, 1024),
    runner: Optional[SweepRunner] = None,
) -> Table:
    """Idle vs loaded bus with the misses *in the program*.

    Two effects compose here: refill bus occupancy (when enabled) and the
    retire-stall of each missing load, which delays the uncached stream at
    the source.  The latter actually *helps* hardware combining — entries
    wait longer in the buffer, so more stores coalesce (the paper's
    "combining is more successful if transactions remain in the uncached
    buffer for a long time") — while the CSB, already bursting full lines,
    only loses the idle gaps.
    """
    sizes = list(sizes)
    jobs = [
        miss_interleaved_job(scheme, size, loaded)
        for scheme in LOADED_SCHEMES
        for loaded in (False, True)
        for size in sizes
    ]
    values = iter((runner or default_runner()).run(jobs))
    table = Table(
        ["scheme", "bus"] + [str(s) for s in sizes],
        title="Store bandwidth with interleaved cache misses "
        "[bytes per bus cycle]",
    )
    for scheme in LOADED_SCHEMES:
        for loaded in (False, True):
            label = "loaded" if loaded else "idle"
            table.add_row(scheme, label, *[next(values) for _ in sizes])
    return table


def injected_bandwidth_point(
    scheme: str,
    total_bytes: int,
    refill_period: int,
    config: Optional[SystemConfig] = None,
) -> float:
    """Store bandwidth with one line refill injected every
    ``refill_period`` bus cycles (0 = idle bus) — pure bus contention,
    independent of the pipeline."""
    from repro.workloads.storebw import store_kernel_csb, store_kernel_uncached

    if config is None:
        config = _loaded_config(scheme, refills_use_bus=True)
    system = System(config)
    if scheme == SCHEME_CSB:
        source = store_kernel_csb(total_bytes, 64)
    else:
        source = store_kernel_uncached(total_bytes)
    system.add_process(assemble(source))
    if not refill_period:
        system.run()
        return system.store_bandwidth
    period = refill_period * system.config.bus.cpu_ratio
    line = 0
    while not system.finished:
        system.refill_engine.request(MISS_ARRAY_BASE + line * 64)
        line += 1
        system.advance(until=system.cycle + period)
    return system.store_bandwidth


def loaded_bus_table(
    refill_periods: Iterable[int] = (0, 40, 20, 12),
    total_bytes: int = 1024,
    runner: Optional[SweepRunner] = None,
) -> Table:
    """Pure bus-contention study: rows = schemes, columns = interference
    rates (one 9-cycle line refill every N bus cycles; 0 = idle)."""
    refill_periods = list(refill_periods)
    jobs = [
        PointJob(
            injected_bandwidth_point,
            (scheme, total_bytes, period),
            _loaded_config(scheme, refills_use_bus=True),
            f"loaded-bus-{scheme}-{period}",
        )
        for scheme in LOADED_SCHEMES
        for period in refill_periods
    ]
    values = iter((runner or default_runner()).run(jobs))

    def label(period: int) -> str:
        return "idle" if period == 0 else f"1/{period}"

    table = Table(
        ["scheme"] + [label(p) for p in refill_periods],
        title=f"Store bandwidth vs injected refill traffic "
        f"({total_bytes} B transfer) [bytes per bus cycle]",
    )
    for scheme in LOADED_SCHEMES:
        table.add_row(scheme, *[next(values) for _ in refill_periods])
    return table
