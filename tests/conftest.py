"""Shared test helpers: one-call system construction and program runs."""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import pytest

from repro.common.config import (
    BusConfig,
    CSBConfig,
    MemoryHierarchyConfig,
    SystemConfig,
    UncachedBufferConfig,
)
from repro.common.stats import StatsCollector
from repro.isa.assembler import assemble
from repro.memory.cache import UNTOUCHED_SET, CacheLevel
from repro.sim.system import System


def make_config(
    bus_kind: str = "multiplexed",
    bus_width: int = 8,
    cpu_ratio: int = 6,
    line_size: int = 64,
    combine_block: int = 8,
    turnaround: int = 0,
    min_addr_delay: int = 0,
    **kwargs,
) -> SystemConfig:
    """A SystemConfig with the knobs tests most often turn."""
    return SystemConfig(
        memory=MemoryHierarchyConfig.with_line_size(line_size),
        bus=BusConfig(
            kind=bus_kind,
            width_bytes=bus_width,
            cpu_ratio=cpu_ratio,
            turnaround=turnaround,
            min_addr_delay=min_addr_delay,
            max_burst_bytes=max(line_size, bus_width),
        ),
        uncached=UncachedBufferConfig(combine_block=combine_block),
        csb=CSBConfig(line_size=line_size),
        **kwargs,
    )


def run_asm(
    source: str,
    config: Optional[SystemConfig] = None,
    registers: Iterable[Tuple[str, int]] = (),
    warm: Iterable[int] = (),
    max_cycles: int = 2_000_000,
) -> System:
    """Assemble, run to completion, and return the finished system."""
    system = System(config or make_config())
    process = system.add_process(assemble(source))
    for name, value in registers:
        process.set_register(name, value)
    for address in warm:
        system.hierarchy.warm(address)
    system.run(max_cycles=max_cycles)
    return system


def run_signature(system: System) -> dict:
    """Everything a run computes, for comparing two ways of running it:
    the cycle, every counter, the TLB's hits and misses, the blocking
    hierarchy (each level's hits, misses, write-backs and the LRU order
    of every set the run touched, and the main-memory accesses), the
    marks, the transaction records, the metrics snapshot and the pipeline
    trace."""
    hierarchy = system.hierarchy
    return {
        "cycle": system.cycle,
        "stats": system.stats.as_dict(),
        "tlb": (system.tlb.hits, system.tlb.misses),
        "caches": [cache_state(level) for level in (hierarchy.l1, hierarchy.l2)],
        "memory_accesses": hierarchy.memory_accesses,
        "marks": dict(system.stats.marks),
        "transactions": list(system.stats.transactions),
        "metrics": system.metrics().to_dict(),
        "trace": None if system.trace is None else list(system.trace.events),
    }


def cache_state(level: CacheLevel) -> tuple:
    """A cache level's hits, misses and write-backs, and each set a fill
    created, by index, as its lines from least to most recently used with
    their clean/dirty states."""
    touched = [
        (index, list(lines.items()))
        for index, lines in enumerate(level._sets)
        if lines is not UNTOUCHED_SET
    ]
    return (level.name, level.hits, level.misses, level.writebacks, touched)


def ring_state(ring) -> tuple:
    """A descriptor ring's counters and its occupancy integral, for
    comparing a ring the clock driver ticked lazily with one ticked every
    bus cycle."""
    return (
        ring.ticks,
        ring.occupancy_integral,
        ring.pending,
        ring.enqueued,
        ring.drained,
        ring.high_water,
        ring.drops,
    )


def registry_targets() -> dict:
    """The shipped-kernel lint registry, walked once: ``name -> target``.

    The single canonical walk behind every suite that sweeps "all
    registered kernels" (disassembler round-trips, fast-forward
    differentials, the lint gate, campaign manifests over the registry).
    """
    from repro.analysis.registry import lint_targets

    return {target.name: target for target in lint_targets()}


def registry_source_params() -> list:
    """Every registered kernel's source as a ``pytest.param`` id'd by
    its registry name, for ``@pytest.mark.parametrize``."""
    return [
        pytest.param(target.source, id=target.name)
        for target in registry_targets().values()
    ]


def smp_dephased_sources(
    num_cores: int,
    iterations: int,
    base: Optional[int] = None,
    n_doublewords: int = 8,
    **kwargs,
) -> list:
    """Per-core de-phased SMP CSB kernel sources for an N-core system.

    Encodes the repo-wide contention idiom in one place: every core gets
    a distinct entry stagger, backoff base, and backoff cap (identical
    bases would lock the deterministic cores' retry periods in phase and
    livelock — see :func:`repro.workloads.smp.smp_csb_kernel`), plus a
    distinct payload signature so device logs can attribute lines.
    """
    from repro.memory.layout import IO_COMBINING_BASE
    from repro.workloads.smp import DEFAULT_STAGGER_STEP, smp_csb_kernel

    if base is None:
        base = IO_COMBINING_BASE
    return [
        smp_csb_kernel(
            iterations,
            base,
            n_doublewords=n_doublewords,
            signature=(core + 1) << 16,
            stagger=core * DEFAULT_STAGGER_STEP,
            backoff_base=2 * core + 1,
            backoff_cap=64 * (core + 1),
            **kwargs,
        )
        for core in range(num_cores)
    ]


@pytest.fixture
def stats() -> StatsCollector:
    return StatsCollector()


@pytest.fixture(autouse=True)
def _hermetic_result_cache(tmp_path, monkeypatch):
    """Keep the csb-figures result cache out of the user's home directory:
    anything in the suite that falls back to the default cache location
    lands in this test's tmp dir instead."""
    monkeypatch.setenv("CSB_CACHE_DIR", str(tmp_path / "result-cache"))
