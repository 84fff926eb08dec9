"""Synchronization mechanism comparison (paper §4.3.2 discussion).

"Other synchronization mechanisms, like the load-linked/store-conditional
instruction pair, also affect the locking overhead.  In many
implementations, the store-conditional instruction results in a bus
transaction even for a cache hit, which would further increase the
locking overhead."

This study measures the same 2–8 doubleword atomic device access as
Figure 5, with the lock built four ways: the SPARC ``swap`` spin lock, an
LL/SC lock whose store-conditional completes locally on a hit, an LL/SC
lock whose store-conditional broadcasts on the bus, and the lock-free CSB.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.common.config import (
    BusConfig,
    CoreConfig,
    CSBConfig,
    MemoryHierarchyConfig,
    SystemConfig,
)
from repro.common.errors import ConfigError
from repro.common.tables import Table
from repro.evaluation.runner import SimJob, SweepRunner, default_runner
from repro.workloads.lockbench import (
    DEFAULT_LOCK_ADDR,
    MARK_DONE,
    MARK_START,
    csb_access_kernel,
    locked_access_kernel,
)
from repro.memory.layout import IO_UNCACHED_BASE

MECHANISMS = ("swap_lock", "llsc_local", "llsc_bus", "csb")


def llsc_access_kernel(
    n_doublewords: int,
    lock_addr: int = DEFAULT_LOCK_ADDR,
    data_base: int = IO_UNCACHED_BASE,
) -> str:
    """The Figure 5 locked access with an LL/SC lock instead of swap."""
    from repro.common.config import DOUBLEWORD

    lines: List[str] = [
        f"mark {MARK_START}",
        f"set {lock_addr}, %o0",
        f"set {data_base}, %o1",
        ".ACQ:",
        "ll [%o0], %l6",
        "brnz %l6, .ACQ",          # lock held: spin
        "set 1, %l5",
        "sc %l5, [%o0], %l5",      # attempt to claim
        "brz %l5, .ACQ",           # lost the link: retry
        "membar",
    ]
    for i in range(n_doublewords):
        lines.append(f"stx %l{i % 4}, [%o1+{i * DOUBLEWORD}]")
    lines += [
        "membar",
        "stx %g0, [%o0]",          # release
        f"mark {MARK_DONE}",
        "halt",
    ]
    return "\n".join(lines)


def sync_access_job(
    mechanism: str, n_doublewords: int, lock_hits_l1: bool = True
) -> SimJob:
    """Describe one atomic access under ``mechanism`` as a SimJob."""
    if mechanism not in MECHANISMS:
        raise ConfigError(f"unknown mechanism {mechanism!r}")
    config = SystemConfig(
        core=CoreConfig(sc_bus_transaction=(mechanism == "llsc_bus")),
        memory=MemoryHierarchyConfig.with_line_size(64),
        bus=BusConfig(cpu_ratio=6, max_burst_bytes=64),
        csb=CSBConfig(line_size=64),
    )
    if mechanism == "swap_lock":
        source = locked_access_kernel(n_doublewords)
    elif mechanism in ("llsc_local", "llsc_bus"):
        source = llsc_access_kernel(n_doublewords)
    else:
        source = csb_access_kernel(n_doublewords)
    return SimJob(
        config=config,
        kernel=source,
        measurement="span",
        args=(MARK_START, MARK_DONE),
        warm=(DEFAULT_LOCK_ADDR,) if lock_hits_l1 else (),
        name=f"sync-{mechanism}-{n_doublewords}",
    )


def sync_mechanism_table(
    counts: Iterable[int] = (2, 4, 8),
    lock_hits_l1: bool = True,
    runner: Optional[SweepRunner] = None,
) -> Table:
    counts = list(counts)
    jobs = [sync_access_job(m, n, lock_hits_l1) for m in MECHANISMS for n in counts]
    values = iter((runner or default_runner()).run(jobs))
    state = "hits L1" if lock_hits_l1 else "misses"
    table = Table(
        ["mechanism"] + [f"{n * 8}B" for n in counts],
        title=f"Atomic device access by synchronization mechanism, "
        f"lock {state} [CPU cycles]",
    )
    for mechanism in MECHANISMS:
        table.add_row(mechanism, *[next(values) for _ in counts])
    return table
