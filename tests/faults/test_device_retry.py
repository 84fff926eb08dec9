"""Device retry/timeout/backoff state machines under injected faults.

Covers the three recovery paths the fault layer forces devices to grow —
NIC transmit retry, DMA re-run, link stop-and-wait ARQ — plus the
negative result that motivates them: on a fire-and-forget wire a single
lost packet hangs a polling receiver forever (pinned with a cycle-budget
:class:`DeadlockError` guard), while the ARQ link recovers and the same
exchange completes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import DeadlockError
from repro.devices.base import DeviceAlias
from repro.devices.dma import DmaEngine
from repro.devices.link import Link
from repro.devices.nic import NetworkInterface
from repro.evaluation.fault_sweep import fault_sweep_system
from repro.faults import FaultConfig
from repro.isa.assembler import assemble
from repro.memory.backing import BackingStore
from repro.memory.layout import (
    IO_COMBINING_BASE,
    IO_UNCACHED_BASE,
    PageAttr,
    Region,
)
from repro.sim.cluster import Cluster
from repro.sim.system import System
from repro.workloads.lockbench import DEFAULT_LOCK_ADDR
from repro.workloads.pingpong import ping_kernel, pong_kernel

NIC_REGION = Region(IO_UNCACHED_BASE, 16 * 1024, PageAttr.UNCACHED, "nic")
DMA_REGION = Region(
    IO_UNCACHED_BASE + 0x20000, 0x1000, PageAttr.UNCACHED, "dma"
)


class ScriptedPlan:
    """FaultPlan stand-in with a scripted fire sequence per site.

    Gives the protocol tests cycle-exact control over *which* attempt
    fails; the seeded-plan tests elsewhere cover the probabilistic path.
    """

    def __init__(self, config: FaultConfig, **scripts) -> None:
        self.config = config
        self._scripts = {site: deque(seq) for site, seq in scripts.items()}
        self.injected = {}

    def _fires(self, site: str) -> bool:
        queue = self._scripts.get(site)
        fired = bool(queue) and queue.popleft()
        if fired:
            self.injected[site] = self.injected.get(site, 0) + 1
        return fired

    def nic_tx_fault(self) -> bool:
        return self._fires("nic_tx_fault")

    def dma_fault(self) -> bool:
        return self._fires("dma_fault")

    def link_drop(self) -> bool:
        return self._fires("link_drop")


# -- NIC transmit retry -------------------------------------------------------


def _nic(plan=None, tx_cycles=8):
    nic = NetworkInterface(NIC_REGION, tx_cycles=tx_cycles)
    nic.faults = plan
    return nic


PAYLOAD = bytes(range(64))


def test_nic_retries_failed_serialization_with_backoff():
    plan = ScriptedPlan(
        FaultConfig(seed=0, nic_tx_fault_rate=0.5), nic_tx_fault=[True]
    )
    nic = _nic(plan)
    nic.handle_write(0, PAYLOAD)  # inline packet
    for cycle in range(64):
        nic.tick(cycle)
    assert nic.tx_retries == 1
    assert nic.tx_failed == 0
    assert len(nic.sent) == 1
    # The retry waited out the exponential hold-off: 2 * tx_cycles after
    # the failed attempt at cycle 0.
    assert nic.sent[0].sent_at == 2 * nic.tx_cycles
    assert nic.sent[0].payload == PAYLOAD


def test_nic_abandons_after_retry_budget():
    plan = ScriptedPlan(
        FaultConfig(seed=0, nic_tx_fault_rate=0.5, max_retries=3),
        nic_tx_fault=[True] * 10,
    )
    nic = _nic(plan)
    nic.handle_write(0, PAYLOAD)
    for cycle in range(400):
        nic.tick(cycle)
    assert nic.sent == []
    assert nic.tx_failed == 1
    assert nic.tx_retries == 2  # attempts 1 and 2 retried, 3rd gave up
    assert nic.pending == 0


def test_nic_retry_preserves_packet_order():
    plan = ScriptedPlan(
        FaultConfig(seed=0, nic_tx_fault_rate=0.5), nic_tx_fault=[True]
    )
    nic = _nic(plan)
    first = bytes([1]) * 64
    second = bytes([2]) * 64
    nic.handle_write(0, first)
    nic.handle_write(0, second)
    for cycle in range(128):
        nic.tick(cycle)
    assert [p.payload for p in nic.sent] == [first, second]


def test_nic_fault_free_path_untouched_by_plan_attribute():
    nic = _nic(plan=None)
    nic.handle_write(0, PAYLOAD)
    for cycle in range(32):
        nic.tick(cycle)
    assert len(nic.sent) == 1
    assert nic.tx_retries == 0 and nic.tx_failed == 0


# -- DMA re-run ---------------------------------------------------------------


def _dma(plan, nic=None):
    memory = BackingStore()
    memory.write_bytes(0x100, bytes(range(64)))
    dma = DmaEngine(DMA_REGION, memory, nic=nic)
    dma.faults = plan
    return dma


def _program(dma, src=0x100, length=64):
    dma.handle_write(0x00, src.to_bytes(8, "big"))
    dma.handle_write(0x08, length.to_bytes(8, "big"))
    dma.handle_write(0x10, (0).to_bytes(8, "big"))  # doorbell: use SRC/LEN


def test_dma_reruns_failed_transfer_with_backoff():
    plan = ScriptedPlan(
        FaultConfig(seed=0, dma_fault_rate=0.5), dma_fault=[True]
    )
    nic = _nic()
    dma = _dma(plan, nic=nic)
    dma.tick(0)
    _program(dma)
    clean_done = dma.setup_cycles + dma.cycles_per_line  # one 64B line
    for cycle in range(1, 600):
        dma.tick(cycle)
    assert dma.retries == 1
    assert dma.failed == 0
    assert len(dma.transfers) == 1
    # Re-run from scratch after a doubled setup hold-off: strictly later
    # than the clean completion.
    assert dma.transfers[0][2] > clean_done
    assert not dma.busy
    assert nic.pending == 1  # the payload still reached the NIC exactly once


def test_dma_abandons_after_retry_budget():
    plan = ScriptedPlan(
        FaultConfig(seed=0, dma_fault_rate=0.5, max_retries=2),
        dma_fault=[True] * 5,
    )
    dma = _dma(plan)
    dma.tick(0)
    _program(dma)
    for cycle in range(1, 600):
        dma.tick(cycle)
    assert dma.failed == 1
    assert dma.retries == 1
    assert dma.transfers == []
    assert not dma.busy  # the engine is usable again after giving up


# -- Link stop-and-wait ARQ ---------------------------------------------------

LATENCY = 4


def _linked_pair(plan):
    nic_a = _nic()
    nic_b = NetworkInterface(NIC_REGION)
    link = Link(nic_a, nic_b, latency=LATENCY)
    nic_a.faults = plan
    return link, nic_a, nic_b


def _drive(link, nics, cycles):
    for cycle in range(cycles):
        link.tick(cycle)
        for nic in nics:
            nic.tick(cycle)


def test_link_retransmits_dropped_data_frame():
    plan = ScriptedPlan(
        FaultConfig(seed=0, link_drop_rate=0.5), link_drop=[True]
    )
    link, nic_a, nic_b = _linked_pair(plan)
    nic_a.handle_write(0, PAYLOAD)
    _drive(link, (nic_a, nic_b), 200)
    assert link.wire_drops == 1
    assert link.retransmits == 1
    assert link.delivered == 1
    assert link.duplicates == 0
    assert link.lost == 0
    assert nic_b.rx_pending == 1
    assert link.in_flight == 0


def test_link_dropped_ack_causes_duplicate_not_double_delivery():
    # Draw order: data frame (kept), its ack (dropped), the retransmitted
    # data (kept), its ack (kept).
    plan = ScriptedPlan(
        FaultConfig(seed=0, link_drop_rate=0.5),
        link_drop=[False, True, False, False],
    )
    link, nic_a, nic_b = _linked_pair(plan)
    nic_a.handle_write(0, PAYLOAD)
    _drive(link, (nic_a, nic_b), 200)
    assert link.wire_drops == 1
    assert link.retransmits == 1
    assert link.duplicates == 1
    # Exactly-once delivery despite the duplicate on the wire.
    assert link.delivered == 1
    assert nic_b.received_total == 1
    assert link.in_flight == 0


def test_link_abandons_packet_after_retry_budget_and_recovers():
    plan = ScriptedPlan(
        FaultConfig(seed=0, link_drop_rate=0.5, max_retries=3),
        link_drop=[True] * 3,  # initial attempt + retries 1 and 2 all drop
    )
    link, nic_a, nic_b = _linked_pair(plan)
    nic_a.handle_write(0, bytes([1]) * 64)
    nic_a.handle_write(0, bytes([2]) * 64)
    _drive(link, (nic_a, nic_b), 600)
    assert link.lost == 1
    assert link.wire_drops == 3
    # The sequence number advanced past the abandoned packet, so the
    # second one still gets through.
    assert link.delivered == 1
    assert nic_b.rx_pending == 1
    assert nic_b._rx_queue[0] == bytes([2]) * 64
    assert link.in_flight == 0


def test_lossless_link_never_engages_arq():
    link, nic_a, nic_b = _linked_pair(plan=None)
    nic_a.handle_write(0, PAYLOAD)
    _drive(link, (nic_a, nic_b), 64)
    assert link.delivered == 1
    assert link.retransmits == 0 and link.wire_drops == 0
    assert nic_b.rx_pending == 1


# -- Device ack-timeout bookkeeping ------------------------------------------


def test_device_timeout_lands_on_the_targeted_device():
    system = fault_sweep_system("lock", 0.1, seed=7)
    system.run(max_cycles=50_000_000)
    injected = system.metrics().fault_injections.get("device_timeout", 0)
    assert injected > 0
    delays = sum(d.ack_delays for d in system.devices)
    cycles = sum(d.ack_delay_cycles for d in system.devices)
    assert delays == injected
    assert cycles == injected * system.config.faults.device_timeout_cycles


# -- The hang the retry machinery exists to prevent ---------------------------


def _pingpong_cluster(faults=None, latency=6):
    def node(node_faults):
        config = SystemConfig()
        if node_faults is not None:
            config = replace(config, faults=node_faults)
        system = System(config)
        nic = NetworkInterface(NIC_REGION)
        system.attach_device(nic)
        system.attach_device(
            DeviceAlias(
                Region(
                    IO_COMBINING_BASE,
                    16 * 1024,
                    PageAttr.UNCACHED_COMBINING,
                    "nic-tx",
                ),
                nic,
            )
        )
        system.hierarchy.warm(DEFAULT_LOCK_ADDR)
        return system, nic

    node_a, nic_a = node(faults)
    node_b, nic_b = node(None)
    cluster = Cluster([node_a, node_b])
    link = cluster.connect(Link(nic_a, nic_b, latency=latency))
    node_a.add_process(
        assemble(
            ping_kernel("csb", 4, IO_UNCACHED_BASE, IO_COMBINING_BASE),
            name="ping",
        )
    )
    node_b.add_process(
        assemble(
            pong_kernel("csb", 4, IO_UNCACHED_BASE, IO_COMBINING_BASE),
            name="pong",
        )
    )
    return cluster, link, nic_a, nic_b


def test_lost_packet_hangs_fire_and_forget_pingpong():
    """Without ARQ there is no recovery: drop the one in-flight packet of
    a lossless (fire-and-forget) wire and both polling nodes spin until
    the cycle budget trips."""
    cluster, link, _, _ = _pingpong_cluster(faults=None)
    while not link._in_flight:
        cluster.step()
    link._in_flight.clear()  # the wire eats the packet
    with pytest.raises(DeadlockError):
        cluster.run(max_cycles=200_000)


def test_arq_link_recovers_the_same_exchange():
    """Same ping-pong, but on a lossy wire with the ARQ engaged: the
    first data frame drops (seed 13 fires on its first draw at rate 0.4)
    and the exchange still completes exactly once per side."""
    faults = FaultConfig(seed=13, link_drop_rate=0.4)
    cluster, link, nic_a, nic_b = _pingpong_cluster(faults=faults)
    cluster.run(max_cycles=2_000_000)
    assert link.wire_drops >= 1
    assert link.retransmits >= 1
    assert nic_a.received_total == 1
    assert nic_b.received_total == 1
    assert link.in_flight == 0


def test_arq_pingpong_is_seed_deterministic():
    def total_cycles():
        cluster, _, _, _ = _pingpong_cluster(
            faults=FaultConfig(seed=13, link_drop_rate=0.4)
        )
        cluster.run(max_cycles=2_000_000)
        return cluster.cycle

    assert total_cycles() == total_cycles()


def test_plan_reaches_link_through_nic():
    faults = FaultConfig(seed=13, link_drop_rate=0.4)
    cluster, link, nic_a, _ = _pingpong_cluster(faults=faults)
    assert nic_a.faults is not None
    assert link._plan() is nic_a.faults
