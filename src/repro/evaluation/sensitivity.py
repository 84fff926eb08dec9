"""Sensitivity studies backing the paper's §4.3.2 discussion.

* **Superscalar width** — "Experiments with a 2-way and 8-way superscalar
  CPU did not change the lock overhead at all, because of the short data
  and control dependencies."
* **Bus speed** — "Wider and faster buses lead to a smaller per-doubleword
  increase in latency": the locking path's slope is one uncached bus
  transaction per doubleword (2 bus cycles x the CPU/bus frequency ratio),
  while the CSB slope stays one CPU cycle per doubleword regardless.
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
from repro.common.tables import Table
from repro.evaluation.runner import (
    SimJob,
    SweepRunner,
    default_runner,
)
from repro.workloads.spec import ProgramWorkload
from repro.workloads.lockbench import (
    DEFAULT_LOCK_ADDR,
    MARK_DONE,
    MARK_START,
    csb_access_kernel,
    locked_access_kernel,
)


def _access_job(
    scheme: str, n_doublewords: int, core: CoreConfig, cpu_ratio: int
) -> SimJob:
    config = SystemConfig(
        core=core,
        memory=MemoryHierarchyConfig.with_line_size(64),
        bus=BusConfig(cpu_ratio=cpu_ratio, max_burst_bytes=64),
        csb=CSBConfig(line_size=64),
    )
    if scheme == "csb":
        source = csb_access_kernel(n_doublewords)
    else:
        source = locked_access_kernel(n_doublewords)
    name = f"sensitivity-{scheme}-{n_doublewords}dw-r{cpu_ratio}"
    workload = ProgramWorkload(
        name=name,
        sources=((name, source),),
        warm=(DEFAULT_LOCK_ADDR,),
        span=(MARK_START, MARK_DONE),
    )
    return SimJob.from_workload(workload, config=config, measurement="span")


def _width_config(width: int) -> CoreConfig:
    return CoreConfig(
        dispatch_width=width,
        retire_width=width,
        int_units=max(1, width // 2),
        fp_units=max(1, width // 2),
    )


def width_sensitivity_table(
    widths: Iterable[int] = (2, 4, 8),
    runner: Optional[SweepRunner] = None,
) -> Table:
    """Lock and CSB access time vs superscalar width (4 doublewords)."""
    widths = list(widths)
    if runner is None:
        runner = default_runner()
    jobs = [
        _access_job(scheme, 4, _width_config(width), cpu_ratio=6)
        for width in widths
        for scheme in ("lock", "csb")
    ]
    values = iter(runner.run(jobs))
    table = Table(
        ["width", "lock_cycles", "csb_cycles"],
        title="Sensitivity: superscalar width (32 B access, lock hits L1)",
    )
    for width in widths:
        table.add_row(width, next(values), next(values))
    return table


def ratio_sensitivity_table(
    ratios: Iterable[int] = (2, 4, 6, 8),
    runner: Optional[SweepRunner] = None,
) -> Table:
    """Per-doubleword latency slope vs the CPU/bus frequency ratio."""
    ratios = list(ratios)
    if runner is None:
        runner = default_runner()
    core = CoreConfig()
    jobs = [
        _access_job(scheme, n, core, ratio)
        for ratio in ratios
        for scheme in ("lock", "csb")
        for n in (8, 2)
    ]
    values = iter(runner.run(jobs))
    table = Table(
        ["cpu_ratio", "lock_slope", "csb_slope"],
        title="Sensitivity: per-doubleword latency slope vs bus speed "
        "[CPU cycles per doubleword]",
    )
    for ratio in ratios:
        lock_slope = (next(values) - next(values)) / 6
        csb_slope = (next(values) - next(values)) / 6
        table.add_row(ratio, lock_slope, csb_slope)
    return table


def sensitivity_summary() -> List[str]:
    """Human-readable conclusions (used by the CLI and docs)."""
    width = width_sensitivity_table()
    ratio = ratio_sensitivity_table()
    lock_range = {row[1] for row in width.rows}
    lines = [
        f"lock overhead across widths 2..8: {sorted(lock_range)}",
        "lock slope tracks 2 bus cycles/dw: "
        + ", ".join(
            f"ratio {row[0]} -> {row[1]:.0f}" for row in ratio.rows
        ),
    ]
    return lines
