"""Atomic line-write mechanisms head to head (paper §6 extension).

Compares every mechanism that can move one 64-byte line to a device
atomically: the conventional lock + uncached stores + unlock, the CSB
sequence, and the VIS block store (with its payload preloaded in FP
registers, and with the realistic integer-marshalling prologue).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.config import SystemConfig
from repro.common.tables import Table
from repro.evaluation.runner import PointJob, SweepRunner, default_runner
from repro.isa.assembler import assemble
from repro.sim.system import System
from repro.workloads.blockstore import (
    SCRATCH_ADDR,
    blockstore_kernel,
    blockstore_marshalled_kernel,
)
from repro.workloads.lockbench import (
    DEFAULT_LOCK_ADDR,
    MARK_DONE,
    MARK_START,
    csb_access_kernel,
    locked_access_kernel,
)

MECHANISMS = (
    "lock_stores_unlock",
    "csb",
    "blockstore_preloaded",
    "blockstore_marshalled",
)


def atomic_line_write(
    mechanism: str, config: Optional[SystemConfig] = None
) -> Tuple[int, int]:
    """(CPU cycles, dynamic instructions) to atomically deliver one
    64-byte line (8 doublewords)."""
    system = System(config)
    if mechanism == "lock_stores_unlock":
        source = locked_access_kernel(8)
    elif mechanism == "csb":
        source = csb_access_kernel(8)
    elif mechanism == "blockstore_preloaded":
        source = blockstore_kernel()
    elif mechanism == "blockstore_marshalled":
        source = blockstore_marshalled_kernel()
    else:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    process = system.add_process(assemble(source, name=mechanism))
    for i in range(8):
        process.set_register(f"%f{i * 2}", 0x1111_0000 + i)
    system.hierarchy.warm(DEFAULT_LOCK_ADDR)
    system.hierarchy.warm(SCRATCH_ADDR)
    system.run()
    return (
        system.span(MARK_START, MARK_DONE),
        process.retired_instructions,
    )


def blockstore_table(runner: Optional[SweepRunner] = None) -> Table:
    """Latency and dynamic instruction cost per mechanism.

    The block store's raw latency win is real — atomicity is free once the
    payload sits in FP registers.  The costs the paper's §6 holds against
    it show up in the instruction column (integer payloads must be
    marshalled through memory) and in what no column can show: eight FP
    registers pinned per pending line, saved and restored on every context
    switch.
    """
    jobs = [
        PointJob(atomic_line_write, (m,), SystemConfig(), f"blockstore-{m}")
        for m in MECHANISMS
    ]
    results = (runner or default_runner()).run(jobs)
    table = Table(
        ["mechanism", "cycles", "instructions"],
        title="Atomic 64-byte device write: mechanism comparison",
    )
    for mechanism, (cycles, instructions) in zip(MECHANISMS, results):
        table.add_row(mechanism, cycles, instructions)
    return table
