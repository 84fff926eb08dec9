"""PIO vs DMA message-send crossover (paper §2 and §5).

The paper argues that DMA's setup overhead makes programmed I/O the better
transport for short messages (their citation [3] puts the break-even near
128 bytes), and that the CSB "moves the break-even point between PIO and
DMA towards bigger messages".  This module measures message latency — the
CPU cycles from the start of the send sequence until the NIC has the full
payload queued for transmission — for three send paths:

* ``pio_locked`` — lock, PIO copy into NIC packet memory, descriptor push,
  unlock (the conventional path).
* ``csb`` — payload committed through conditional-flush bursts; messages
  up to one cache line go inline straight into the TX FIFO, larger ones
  are burst into packet memory line by line and finished with a
  descriptor flush.  No lock.
* ``dma`` — program source/length, ring the doorbell; the engine fetches
  the payload and hands it to the NIC.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.common.config import DOUBLEWORD, SystemConfig
from repro.common.errors import ConfigError
from repro.common.tables import Table
from repro.devices.dma import DmaEngine
from repro.devices.nic import NetworkInterface, PACKET_MEMORY_OFFSET
from repro.isa.assembler import assemble
from repro.memory.layout import (
    IO_COMBINING_BASE,
    IO_UNCACHED_BASE,
    PageAttr,
    Region,
)
from repro.evaluation.runner import PointJob, SweepRunner, default_runner
from repro.sim.system import System
from repro.workloads.lockbench import DEFAULT_LOCK_ADDR, MARK_START
from repro.workloads.messaging import dma_send_kernel, pio_send_kernel

METHODS = ("pio_locked", "csb", "dma")

#: Message sizes swept (bytes).
MESSAGE_SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048)

_NIC_COMBINING = IO_COMBINING_BASE
_NIC_UNCACHED = IO_UNCACHED_BASE
_DMA_BASE = IO_UNCACHED_BASE + 0x10_0000
_PAYLOAD_SRC = 0x8000


def _csb_multi_line_kernel(payload_bytes: int, nic_base: int, line_size: int) -> str:
    """CSB send: inline for one line, else packet memory + descriptor."""
    if payload_bytes <= line_size:
        from repro.workloads.messaging import csb_send_kernel

        return csb_send_kernel(payload_bytes, nic_base)
    from repro.devices.nic import DESC_OFFSET

    lines: List[str] = [
        f"mark {MARK_START}",
        f"set {nic_base + PACKET_MEMORY_OFFSET}, %o1",
        f"set {nic_base + DESC_OFFSET}, %o2",
    ]
    dwords_per_line = line_size // DOUBLEWORD
    emitted = 0
    group = 0
    total_dwords = payload_bytes // DOUBLEWORD
    while emitted < total_dwords:
        in_group = min(dwords_per_line, total_dwords - emitted)
        base = emitted * DOUBLEWORD
        lines.append(f".RETRY{group}:")
        lines.append(f"set {in_group}, %l4")
        for i in range(in_group):
            lines.append(f"stx %l{i % 4}, [%o1+{base + i * DOUBLEWORD}]")
        lines.append(f"swap [%o1+{base}], %l4")
        lines.append(f"cmp %l4, {in_group}")
        lines.append(f"bnz .RETRY{group}")
        emitted += in_group
        group += 1
    descriptor = (PACKET_MEMORY_OFFSET << 16) | payload_bytes
    lines += [
        ".RETRYD:",
        "set 1, %l4",
        f"set {descriptor}, %l5",
        "stx %l5, [%o2]",          # descriptor store (combining space)
        "swap [%o2], %l4",          # flush the descriptor line
        "cmp %l4, 1",
        "bnz .RETRYD",
        "halt",
    ]
    return "\n".join(lines)


def _build_system(
    method: str, config: Optional[SystemConfig] = None
) -> Tuple[System, NetworkInterface]:
    system = System(config)
    if method == "csb":
        region = Region(
            _NIC_COMBINING, 128 * 1024, PageAttr.UNCACHED_COMBINING, "nic"
        )
    else:
        region = Region(_NIC_UNCACHED, 128 * 1024, PageAttr.UNCACHED, "nic")
    nic = NetworkInterface(region)
    system.attach_device(nic)
    if method == "dma":
        dma_region = Region(_DMA_BASE, 8192, PageAttr.UNCACHED, "dma")
        # Setup/per-line costs calibrated so the conventional PIO/DMA
        # break-even lands near the ~128-byte point the paper cites from
        # its reference [3] ("PIO is better than DMA for messages shorter
        # than 128 bytes").
        system.attach_device(
            DmaEngine(
                dma_region,
                system.backing,
                nic,
                setup_cycles=16,
                cycles_per_line=8,
            )
        )
    return system, nic


def send_latency(
    method: str,
    payload_bytes: int,
    config: Optional[SystemConfig] = None,
    warm_lock: bool = True,
) -> int:
    """CPU cycles from send start until the NIC holds the full payload.

    ``config`` overrides the machine (e.g. the cached-crossover study
    enables the D-cache); ``warm_lock=False`` leaves the PIO path's lock
    line cold, so the first acquire misses.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown send method {method!r}")
    if payload_bytes % DOUBLEWORD:
        raise ConfigError("payload must be a doubleword multiple")
    system, nic = _build_system(method, config)
    line_size = system.config.csb.line_size
    if method == "pio_locked":
        source = pio_send_kernel(
            payload_bytes, _NIC_UNCACHED, lock_addr=DEFAULT_LOCK_ADDR
        )
    elif method == "csb":
        source = _csb_multi_line_kernel(payload_bytes, _NIC_COMBINING, line_size)
    else:
        system.backing.fill(_PAYLOAD_SRC, payload_bytes, 0xA5)
        source = dma_send_kernel(_PAYLOAD_SRC, payload_bytes, _DMA_BASE)
    process = system.add_process(assemble(source, name=f"{method}-{payload_bytes}"))
    if method == "pio_locked" and warm_lock:
        system.warm(DEFAULT_LOCK_ADDR)
    system.run()
    if method == "csb" and payload_bytes <= line_size:
        packets = [p for p in nic.sent if p.inline]
    else:
        packets = [p for p in nic.sent if not p.inline]
    if len(packets) != 1:
        raise ConfigError(
            f"{method}/{payload_bytes}: expected one matching packet, "
            f"saw {len(packets)} (NIC sent {len(nic.sent)} total)"
        )
    pushed_cpu_cycle = packets[0].pushed_at * system.config.bus.cpu_ratio
    return pushed_cpu_cycle - system.stats.marks[MARK_START]


def crossover_table(
    sizes: Iterable[int] = MESSAGE_SIZES, runner: Optional[SweepRunner] = None
) -> Table:
    """Rows = send methods, columns = message sizes, cells = CPU cycles."""
    sizes = list(sizes)
    jobs = [
        PointJob(send_latency, (m, s), SystemConfig(), f"crossover-{m}-{s}")
        for m in METHODS
        for s in sizes
    ]
    values = iter((runner or default_runner()).run(jobs))
    table = Table(
        ["method"] + [str(s) for s in sizes],
        title="PIO vs DMA message latency [CPU cycles to NIC hand-off]",
    )
    for method in METHODS:
        table.add_row(method, *[next(values) for _ in sizes])
    return table
