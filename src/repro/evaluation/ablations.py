"""Ablations of the CSB design choices discussed in paper §3.2.

Each function isolates one knob:

* **Second line buffer** — §3.2: "the single line buffer ... could be
  easily extended with a second line buffer to increase pipelining and
  avoid program stalls awaiting the completion of the conditional flush."
  On a fast split bus the single-buffer CSB cannot keep the bus saturated;
  the second buffer recovers the peak.
* **Full-line padding vs. multiple burst sizes** — §3.2: "this restriction
  could be relaxed in a CSB design for a particular bus which permits
  multiple burst sizes."  Relaxing it removes the small-transfer penalty.
* **Address check** — §3.2: "it is not strictly necessary to include the
  destination address in the conflict check.  However, this allows
  detection of conflicts between competing threads that might run under
  the same process ID."
* **Uncached buffer depth** — how much FIFO depth hardware combining needs
  before it stops being the bottleneck.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional

from repro.common.config import CSBConfig, SystemConfig, UncachedBufferConfig
from repro.common.stats import StatsCollector
from repro.common.tables import Table
from repro.uncached.csb import ConditionalStoreBuffer, FlushResult
from repro.evaluation.bandwidth import config_for
from repro.evaluation.panels import FIG3_PANELS, FIG4_PANELS, PanelSpec
from repro.evaluation.runner import (
    SimJob,
    SweepRunner,
    default_runner,
)
from repro.workloads.spec import ProgramWorkload
from repro.workloads.storebw import store_kernel_csb

_SIZES = (16, 32, 64, 128, 256, 512, 1024)


def _csb_bandwidth_job(
    panel: PanelSpec, csb_config: CSBConfig, size: int
) -> SimJob:
    name = f"ablation-{panel.panel_id}-csb-{size}"
    workload = ProgramWorkload(
        name=name,
        sources=((name, store_kernel_csb(size, panel.line_size)),),
    )
    return SimJob.from_workload(
        workload,
        config=replace(config_for(panel, "csb"), csb=csb_config),
        measurement="store_bandwidth",
    )


def line_buffer_table(
    sizes: Iterable[int] = _SIZES,
    runner: Optional[SweepRunner] = None,
) -> Table:
    """Single vs. double line buffer on the fast 256-bit split bus, where
    the single-buffer refill stall is visible."""
    panel = FIG4_PANELS["b"]
    sizes = list(sizes)
    if runner is None:
        runner = default_runner()
    variants = (1, 2)
    jobs = [
        _csb_bandwidth_job(
            panel,
            CSBConfig(line_size=panel.line_size, num_line_buffers=buffers),
            size,
        )
        for buffers in variants
        for size in sizes
    ]
    values = iter(runner.run(jobs))
    table = Table(
        ["line_buffers"] + [str(s) for s in sizes],
        title="Ablation: CSB line buffers on a 256-bit split bus "
        "[bytes per bus cycle]",
    )
    for buffers in variants:
        table.add_row(str(buffers), *[next(values) for _ in sizes])
    return table


def burst_padding_table(
    sizes: Iterable[int] = _SIZES,
    runner: Optional[SweepRunner] = None,
) -> Table:
    """Always-full-line vs. multiple-burst-size flushes on the mux bus:
    the relaxation removes the small-transfer penalty."""
    panel = FIG3_PANELS["e"]
    sizes = list(sizes)
    if runner is None:
        runner = default_runner()
    variants = (True, False)
    jobs = [
        _csb_bandwidth_job(
            panel,
            CSBConfig(line_size=panel.line_size, pad_to_full_line=pad),
            size,
        )
        for pad in variants
        for size in sizes
    ]
    values = iter(runner.run(jobs))
    table = Table(
        ["flush_policy"] + [str(s) for s in sizes],
        title="Ablation: full-line vs multi-size CSB bursts "
        "[bytes per bus cycle]",
    )
    for pad in variants:
        name = "full_line" if pad else "multi_size"
        table.add_row(name, *[next(values) for _ in sizes])
    return table


def address_check_table(runner: Optional[SweepRunner] = None) -> Table:
    """Same-PID thread conflicts: caught with the address check, silently
    merged without it."""
    table = Table(
        ["address_check", "thread_A_flush", "commits_wrong_line"],
        title="Ablation: CSB conflict detection for same-PID threads",
    )
    for check in (True, False):
        csb = ConditionalStoreBuffer(
            CSBConfig(check_address=check, num_line_buffers=2), StatsCollector()
        )
        line_a, line_b = 0x3000_0000, 0x3000_0040
        # Thread A stores once to its line; thread B (same process ID)
        # preempts it and stores once to a different line.  A's flush then
        # has a matching PID and hit count — only the address differs.
        csb.store(line_a, b"A" * 8, pid=1)
        csb.store(line_b, b"B" * 8, pid=1)     # thread B, same process ID
        result_a = csb.conditional_flush(line_a, 1, expected=1)
        if result_a is FlushResult.SUCCESS:
            burst = csb.pop_burst()
            wrong = "yes" if burst.address != line_a else "no"
        else:
            wrong = "no"
        table.add_row("on" if check else "off", result_a.value, wrong)
    return table


def buffer_depth_table(
    depths: Iterable[int] = (1, 2, 4, 8, 16),
    n_stores: int = 16,
    runner: Optional[SweepRunner] = None,
) -> Table:
    """CPU-side stall absorption vs uncached buffer depth.

    Bandwidth on the bus is drain-limited and insensitive to depth; what
    depth buys is *decoupling*: with a shallow buffer the core stalls at
    retirement behind every uncached store, so the cycles until the store
    sequence has retired (and the core may move on to independent work)
    shrink as the buffer deepens.
    """
    from repro.memory.layout import IO_UNCACHED_BASE

    depths = list(depths)
    if runner is None:
        runner = default_runner()
    stores = "".join(
        f"stx %l0, [%o1+{8 * i}]\n" for i in range(n_stores)
    )
    source = (
        f"set {IO_UNCACHED_BASE}, %o1\n"
        "mark a\n" + stores + "mark b\nhalt"
    )
    panel = FIG3_PANELS["e"]
    jobs = [
        SimJob.from_workload(
            ProgramWorkload(
                name=f"ablation-depth-{depth}",
                sources=((f"ablation-depth-{depth}", source),),
                span=("a", "b"),
            ),
            config=replace(
                config_for(panel, "none"),
                uncached=UncachedBufferConfig(combine_block=8, depth=depth),
            ),
            measurement="span",
        )
        for depth in depths
    ]
    values = runner.run(jobs)
    table = Table(
        ["depth", "cpu_cycles_to_retire_stores"],
        title=f"Ablation: uncached buffer depth ({n_stores} doubleword stores)",
    )
    for depth, value in zip(depths, values):
        table.add_row(depth, value)
    return table


def flush_latency_table(
    latencies: Iterable[int] = (1, 3, 5, 10),
    runner: Optional[SweepRunner] = None,
) -> Table:
    """Sensitivity of the Figure 5 CSB latency to the flush-check latency."""
    from repro.common.config import (
        BusConfig,
        MemoryHierarchyConfig,
    )
    from repro.workloads.lockbench import MARK_DONE, MARK_START, csb_access_kernel

    latencies = list(latencies)
    if runner is None:
        runner = default_runner()
    counts = (2, 8)
    jobs = [
        SimJob.from_workload(
            ProgramWorkload(
                name=f"ablation-flushlatency-{latency}-{n}dw",
                sources=(
                    (f"ablation-flushlatency-{latency}-{n}dw",
                     csb_access_kernel(n)),
                ),
                span=(MARK_START, MARK_DONE),
            ),
            config=SystemConfig(
                memory=MemoryHierarchyConfig.with_line_size(64),
                bus=BusConfig(cpu_ratio=6, max_burst_bytes=64),
                csb=CSBConfig(line_size=64, flush_latency=latency),
            ),
            measurement="span",
        )
        for latency in latencies
        for n in counts
    ]
    values = iter(runner.run(jobs))
    table = Table(
        ["flush_latency", "2dw", "8dw"],
        title="Ablation: CSB flush latency vs access time [CPU cycles]",
    )
    for latency in latencies:
        table.add_row(latency, *[next(values) for _ in counts])
    return table
