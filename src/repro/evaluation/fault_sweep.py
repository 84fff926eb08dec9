"""Fault sweep: lock vs CSB atomic device access under injected faults.

The paper argues the CSB's optimistic protocol degrades gracefully: a
failed conditional flush costs one software retry, while a lock-based
discipline serializes — every fault that delays one bus transaction also
delays the lock hold time, and every access pays the full lock/store/
unlock transaction count.  This study quantifies that claim with the
:mod:`repro.faults` subsystem: both disciplines run the same repeated
64-byte atomic device access on one core while a seeded fault plan NACKs
bus transactions, stretches target waits, delays device acknowledgments,
and (for the CSB) spuriously aborts conditional flushes.

The locked variant issues ~8 uncached store transactions per access, the
CSB exactly one burst flush; per-transaction fault rates therefore tax
the lock proportionally harder, and the measured cycles-per-access must
degrade at least as fast for the lock as for the CSB at every nonzero
rate (pinned by expected_results/fault-sweep.csv and
tests/faults/test_fault_sweep.py).
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
from repro.devices.sink import BurstSink
from repro.evaluation.runner import PointJob, SweepRunner, default_runner
from repro.faults import FaultConfig
from repro.isa.assembler import assemble
from repro.memory.layout import (
    IO_COMBINING_BASE,
    IO_UNCACHED_BASE,
    PageAttr,
    Region,
)
from repro.sim.system import System
from repro.workloads.contention import contending_csb_kernel
from repro.workloads.lockbench import DEFAULT_LOCK_ADDR
from repro.workloads.smp import smp_locked_kernel

MECHANISMS = ("lock", "csb")

#: Injected-fault probabilities swept (0.0 first: the fault-free anchor
#: both slowdown columns normalize against).
DEFAULT_RATES = (0.0, 0.02, 0.05, 0.1)

#: Accesses per run — enough fault opportunities (~8 bus transactions per
#: locked access) for every site to fire at the 2 % rate.
DEFAULT_ITERATIONS = 40

#: Campaign seed for the golden CSV.
DEFAULT_SEED = 7


def fault_profile(rate: float, seed: int = DEFAULT_SEED) -> FaultConfig:
    """The sweep's fault mix: every transport-level site at ``rate``.

    Bus NACKs, target-wait stretches, and late device acknowledgments
    hit both disciplines per transaction; spurious flush aborts tax the
    CSB's own conditional protocol.  A zero ``rate`` returns a disabled
    config, so the baseline row runs the pristine fault-free fast path.
    """
    return FaultConfig(
        seed=seed,
        bus_nack_rate=rate,
        bus_stall_rate=rate,
        device_timeout_rate=rate,
        csb_spurious_abort_rate=rate,
    )


def fault_sweep_config(rate: float, seed: int = DEFAULT_SEED) -> SystemConfig:
    """One sweep point's machine: the Figure 5 bus carrying
    :func:`fault_profile` at ``rate``."""
    return SystemConfig(
        memory=MemoryHierarchyConfig.with_line_size(64),
        bus=BusConfig(cpu_ratio=6, max_burst_bytes=64),
        csb=CSBConfig(line_size=64),
        faults=fault_profile(rate, seed),
    )


def fault_sweep_system(
    mechanism: str,
    rate: float,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = DEFAULT_SEED,
) -> System:
    """Build (without running) one sweep point's single-core system."""
    return _build(mechanism, iterations, fault_sweep_config(rate, seed))


def _build(mechanism: str, iterations: int, config: SystemConfig) -> System:
    if mechanism not in MECHANISMS:
        raise ConfigError(f"unknown mechanism {mechanism!r}; have {MECHANISMS}")
    system = System(config)
    # Real device targets at both disciplines' windows, so injected
    # device acknowledgment timeouts apply to each equally.
    system.attach_device(
        BurstSink(
            Region(IO_UNCACHED_BASE, 8192, PageAttr.UNCACHED, "lock-dev")
        )
    )
    system.attach_device(
        BurstSink(
            Region(
                IO_COMBINING_BASE, 8192, PageAttr.UNCACHED_COMBINING, "csb-dev"
            )
        )
    )
    if mechanism == "lock":
        source = smp_locked_kernel(iterations, signature=0x1_0000)
    else:
        source = contending_csb_kernel(
            iterations, IO_COMBINING_BASE, signature=0x1_0000
        )
    system.add_process(assemble(source, name=mechanism))
    system.hierarchy.warm(DEFAULT_LOCK_ADDR)
    return system


def fault_sweep_cycles(
    mechanism: str, iterations: int = DEFAULT_ITERATIONS, *, config: SystemConfig
) -> float:
    """CPU cycles per completed atomic access on ``config``, whose fault
    profile (:func:`fault_sweep_config`) sets the rate."""
    system = _build(mechanism, iterations, config)
    system.run(max_cycles=50_000_000)
    return system.cycle / iterations


def fault_sweep_table(
    rates: Iterable[float] = DEFAULT_RATES,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
) -> Table:
    """Lock vs CSB cycles-per-access (and slowdowns) per fault rate."""
    rates = list(rates)
    if not rates or rates[0] != 0.0:
        raise ConfigError("the sweep needs the fault-free rate 0.0 first")
    jobs = [
        PointJob(
            fault_sweep_cycles,
            (mechanism, iterations),
            fault_sweep_config(rate, seed),
            f"fault-sweep-{mechanism}-{rate}",
        )
        for rate in rates
        for mechanism in MECHANISMS
    ]
    values = iter((runner or default_runner()).run(jobs))
    table = Table(
        [
            "rate",
            "lock",
            "csb",
            "lock-slowdown",
            "csb-slowdown",
            "lock/csb",
        ],
        title=f"Fault sweep: {iterations} atomic 64B device accesses, "
        f"seed {seed} [CPU cycles per access]",
    )
    baselines = {}
    for rate in rates:
        lock, csb = next(values), next(values)
        if rate == 0.0:
            baselines = {"lock": lock, "csb": csb}
        table.add_row(
            rate,
            round(lock, 2),
            round(csb, 2),
            round(lock / baselines["lock"], 4),
            round(csb / baselines["csb"], 4),
            round(lock / csb, 2),
        )
    return table
