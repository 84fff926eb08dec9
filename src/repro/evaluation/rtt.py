"""Two-node round-trip time study (the paper's §5 scalability argument).

Builds a two-node cluster — each node a full system with its NIC mapped
twice (control registers in plain uncached space, TX windows aliased into
uncached-combining space) — and measures ping-pong RTT for the
conventional locked-PIO send path versus the CSB send path.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.common.tables import Table
from repro.devices.base import DeviceAlias
from repro.devices.link import Link
from repro.devices.nic import NetworkInterface
from repro.isa.assembler import assemble
from repro.memory.layout import (
    IO_COMBINING_BASE,
    IO_UNCACHED_BASE,
    PageAttr,
    Region,
)
from repro.evaluation.runner import PointJob, SweepRunner, default_runner
from repro.sim.cluster import Cluster
from repro.sim.system import System
from repro.workloads.lockbench import DEFAULT_LOCK_ADDR
from repro.workloads.pingpong import (
    MARK_RTT_DONE,
    MARK_RTT_START,
    ping_kernel,
    pong_kernel,
)

NIC_REGION_SIZE = 16 * 1024

#: Methods measured: the kernel-level send paths plus the relaxed-CSB
#: hardware variant (multi-size flush bursts, paper §3.2's relaxation).
RTT_METHODS = ("pio", "csb", "csb_multisize")


def _node_config(method: str) -> SystemConfig:
    """Each node's machine: the relaxed-CSB method sends multi-size
    flush bursts instead of padding every flush to a full line."""
    config = SystemConfig()
    pad = method != "csb_multisize"
    return replace(config, csb=replace(config.csb, pad_to_full_line=pad))


def _build_node(
    config: Optional[SystemConfig] = None,
) -> Tuple[System, NetworkInterface]:
    system = System(config)
    nic = NetworkInterface(
        Region(IO_UNCACHED_BASE, NIC_REGION_SIZE, PageAttr.UNCACHED, "nic")
    )
    system.attach_device(nic)
    alias = DeviceAlias(
        Region(
            IO_COMBINING_BASE,
            NIC_REGION_SIZE,
            PageAttr.UNCACHED_COMBINING,
            "nic-tx",
        ),
        nic,
    )
    system.attach_device(alias)
    system.hierarchy.warm(DEFAULT_LOCK_ADDR)
    return system, nic


def pingpong_rtt(
    method: str,
    payload_dwords: int,
    link_latency: int = 10,
    config: Optional[SystemConfig] = None,
) -> int:
    """Round-trip time in CPU cycles for one echo exchange; both nodes
    are ``config`` (default: :func:`_node_config` of ``method``)."""
    if method not in RTT_METHODS:
        raise ConfigError(f"unknown send method {method!r}")
    if config is None:
        config = _node_config(method)
    kernel_method = "pio" if method == "pio" else "csb"
    node_a, nic_a = _build_node(config)
    node_b, nic_b = _build_node(config)
    cluster = Cluster([node_a, node_b])
    cluster.connect(Link(nic_a, nic_b, latency=link_latency))
    node_a.add_process(
        assemble(
            ping_kernel(
                kernel_method, payload_dwords, IO_UNCACHED_BASE, IO_COMBINING_BASE
            ),
            name=f"ping-{method}",
        )
    )
    node_b.add_process(
        assemble(
            pong_kernel(
                kernel_method, payload_dwords, IO_UNCACHED_BASE, IO_COMBINING_BASE
            ),
            name=f"pong-{method}",
        )
    )
    cluster.run()
    if nic_b.received_total != 1 or nic_a.received_total != 1:
        raise ConfigError("ping-pong did not complete one exchange per side")
    return node_a.span(MARK_RTT_START, MARK_RTT_DONE)


def rtt_table(
    payload_dwords: Iterable[int] = (1, 2, 4, 8),
    link_latency: int = 10,
    runner: Optional[SweepRunner] = None,
) -> Table:
    """Rows = send methods, columns = payload sizes, cells = RTT cycles."""
    payload_dwords = list(payload_dwords)
    jobs = [
        PointJob(
            pingpong_rtt,
            (method, n, link_latency),
            _node_config(method),
            f"pingpong-{method}-{n * 8}",
        )
        for method in RTT_METHODS
        for n in payload_dwords
    ]
    values = iter((runner or default_runner()).run(jobs))
    table = Table(
        ["method"] + [f"{n * 8}B" for n in payload_dwords],
        title=f"Two-node ping-pong RTT, {link_latency}-bus-cycle wire "
        "[CPU cycles]",
    )
    for method in RTT_METHODS:
        table.add_row(method, *[next(values) for _ in payload_dwords])
    return table
