"""SMP contention study: lock vs CSB as 2–8 cores hammer one device.

Extends the paper's Figure 5 comparison — locked uncached access vs CSB
atomic access — from a single preempted core to true multiprocessing.
Every core runs the same kernel against the same device line; the lock
variant serializes all cores on one spin lock, while the CSB variant
relies on the conditional flush's conflict detection (process ID + hit
counter) plus software retry with exponential backoff.  The measurement
is the total CPU cycles until every core has completed its accesses and
all I/O has drained: the lock's handoff cost grows with the number of
waiters, while the CSB's optimistic protocol pays only for actual store
interleavings, so the gap between the two columns must widen
monotonically with the core count.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.common.config import (
    BusConfig,
    CSBConfig,
    MemoryHierarchyConfig,
    SystemConfig,
)
from repro.common.errors import ConfigError
from repro.common.tables import Table
from repro.evaluation.runner import PointJob, SweepRunner, default_runner
from repro.isa.assembler import assemble
from repro.memory.layout import IO_COMBINING_BASE
from repro.sim.system import System
from repro.workloads.lockbench import DEFAULT_LOCK_ADDR
from repro.workloads.smp import (
    DEFAULT_STAGGER_STEP,
    smp_csb_kernel,
    smp_locked_kernel,
)

MECHANISMS = ("lock", "csb")

#: Accesses each core performs (kept small: the experiment is O(cores^2)
#: in simulated work and runs inside the CI smoke job).
DEFAULT_ITERATIONS = 6


def smp_contention_config(
    num_cores: int, arbitration: str = "round_robin"
) -> SystemConfig:
    """The N-core machine on the Figure 5 bus."""
    return SystemConfig(
        num_cores=num_cores,
        arbitration=arbitration,
        memory=MemoryHierarchyConfig.with_line_size(64),
        bus=BusConfig(cpu_ratio=6, max_burst_bytes=64),
        csb=CSBConfig(line_size=64),
    )


def smp_contention_system(
    mechanism: str,
    num_cores: int,
    iterations: int = DEFAULT_ITERATIONS,
    n_doublewords: int = 8,
    arbitration: str = "round_robin",
) -> System:
    """Build (without running) the N-core contention system."""
    config = smp_contention_config(num_cores, arbitration)
    return _build(mechanism, iterations, n_doublewords, config)


def _build(
    mechanism: str, iterations: int, n_doublewords: int, config: SystemConfig
) -> System:
    """Every core of ``config`` runs the mechanism's kernel."""
    if mechanism not in MECHANISMS:
        raise ConfigError(f"unknown mechanism {mechanism!r}; have {MECHANISMS}")
    system = System(config)
    for core in range(config.num_cores):
        if mechanism == "lock":
            source = smp_locked_kernel(
                iterations,
                n_doublewords=n_doublewords,
                signature=(core + 1) << 16,
            )
        else:
            source = smp_csb_kernel(
                iterations,
                IO_COMBINING_BASE,
                n_doublewords=n_doublewords,
                signature=(core + 1) << 16,
                stagger=core * DEFAULT_STAGGER_STEP,
                # Distinct per-core backoff bases and caps keep the
                # deterministic cores' retry periods permanently unequal
                # (see repro.workloads.smp); the caps bound the tail spin
                # so the last finisher's idle time stays proportional to
                # the contention it actually saw.
                backoff_base=2 * core + 1,
                backoff_cap=64 * (core + 1),
            )
        system.add_process(
            assemble(source, name=f"{mechanism}{core}"), core_id=core
        )
    # The lock hits the L1 (the paper's Figure 5a regime); harmless for csb.
    system.hierarchy.warm(DEFAULT_LOCK_ADDR)
    return system


def smp_contention_cycles(
    mechanism: str,
    iterations: int = DEFAULT_ITERATIONS,
    n_doublewords: int = 8,
    *,
    config: SystemConfig,
) -> int:
    """Total CPU cycles for every core of ``config`` (see
    :func:`smp_contention_config`) to finish its accesses and drain."""
    system = _build(mechanism, iterations, n_doublewords, config)
    system.run(max_cycles=50_000_000)
    return system.cycle


def smp_contention_table(
    core_counts: Iterable[int] = (2, 4, 8),
    iterations: int = DEFAULT_ITERATIONS,
    runner: Optional[SweepRunner] = None,
) -> Table:
    """Lock vs CSB total cycles per core count, plus their ratio."""
    core_counts = list(core_counts)
    jobs = [
        PointJob(
            smp_contention_cycles,
            (mechanism, iterations),
            smp_contention_config(cores),
            f"smp-contention-{mechanism}-{cores}",
        )
        for cores in core_counts
        for mechanism in MECHANISMS
    ]
    values = iter((runner or default_runner()).run(jobs))
    table = Table(
        ["cores", "lock", "csb", "lock/csb"],
        title=f"SMP contention: {iterations} atomic 64B device accesses "
        "per core, one shared line [total CPU cycles]",
    )
    for cores in core_counts:
        lock, csb = next(values), next(values)
        table.add_row(cores, lock, csb, round(lock / csb, 2))
    return table
