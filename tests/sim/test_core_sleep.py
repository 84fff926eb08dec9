"""Quiet-tick sleeping changes nothing a simulation computes.

A stalled core sleeps instead of re-running its stages (see
:meth:`repro.cpu.core.Core.tick`): it re-applies one quiet tick's counter
increments each cycle until one of its timers could change the outcome,
the bus accepts a transaction, or the scheduler or a value delivery wakes
it.  Every run here executes twice — once as shipped and once with
sleeping disabled by monkeypatching ``Core._try_sleep`` — and the cycle
count, every counter, the marks, the transaction records, the metrics
snapshot and the pipeline trace must agree exactly.
"""

from __future__ import annotations

import pytest

from repro.common.config import MemoryConfig, SamplingConfig, SystemConfig
from repro.common.errors import DeadlockError
from repro.cpu.core import Core
from repro.devices.link import Link
from repro.devices.sink import BurstSink
from repro.evaluation.rtt import _build_node
from repro.evaluation.smp_contention import smp_contention_system
from repro.faults.config import FaultConfig
from repro.isa.assembler import assemble
from repro.memory.layout import IO_COMBINING_BASE, IO_UNCACHED_BASE, PageAttr, Region
from repro.sim.cluster import Cluster
from repro.sim.sampling import run_sampled
from repro.sim.system import System
from repro.workloads.contention import contending_csb_kernel
from repro.workloads.pingpong import ping_kernel, pong_kernel
from repro.workloads.random_programs import generate_program
from repro.workloads.spec import TraceWorkload
from repro.workloads.storebw import store_kernel_uncached
from repro.workloads.traces.replay import TraceReplay

from tests.conftest import make_config, registry_targets, run_signature

_TARGETS = registry_targets()

#: Kernels that poll a device register and never halt on a bare system:
#: they run a fixed window, so the comparison also reads counters while a
#: core may be asleep.
POLLING_PREFIXES = ("ping-", "pong-", "dma-send-")
POLLING_WINDOW = 20_000
MAX_CYCLES = 5_000_000


def _never_sleep(self, now, probe):
    """Stand-in for ``Core._try_sleep``: the core ticks through."""


def _slept(systems):
    return sum(core.slept_ticks for system in systems for core in system.cores)


def _both(monkeypatch, run):
    """``run()`` once with sleeping disabled, once as shipped.

    ``run`` returns ``(signature, systems)``; the result is the two
    signatures and the number of cycles the shipped run slept through.
    """
    with monkeypatch.context() as patch:
        patch.setattr(Core, "_try_sleep", _never_sleep)
        awake, awake_systems = run()
    assert _slept(awake_systems) == 0
    asleep, systems = run()
    return awake, asleep, _slept(systems)


def _program_run(source, config, window=None):
    def run():
        system = System(config)
        system.add_process(assemble(source, name="sleep"))
        if window is None:
            system.run(max_cycles=MAX_CYCLES)
        else:
            system.advance(until=window)
        return run_signature(system), [system]

    return run


# -- every registry target and the random-program corpus ------------------------


@pytest.mark.parametrize("name", sorted(_TARGETS))
def test_registry_target_identical_with_sleeping(monkeypatch, name):
    target = _TARGETS[name]
    config = make_config(line_size=target.context.line_size, trace=True)
    window = POLLING_WINDOW if name.startswith(POLLING_PREFIXES) else None
    awake, asleep, _ = _both(monkeypatch, _program_run(target.source, config, window))
    assert asleep == awake


@pytest.mark.parametrize("seed", range(50))
def test_random_program_identical_with_sleeping(monkeypatch, seed):
    run = _program_run(generate_program(seed), make_config(trace=True))
    awake, asleep, _ = _both(monkeypatch, run)
    assert asleep == awake


def test_sleeping_happens_on_a_bus_bound_store_stream(monkeypatch):
    # Figure 3e's regime: uncached stores back up behind a bus clocked 6x
    # slower than the core, so most cycles are quiet.
    config = make_config(cpu_ratio=6, line_size=64, trace=True)
    run = _program_run(store_kernel_uncached(1024), config)
    awake, asleep, slept = _both(monkeypatch, run)
    assert asleep == awake
    assert slept > awake["cycle"] // 2
    assert awake["stats"]["uncached.full_stalls"] > 0


# -- SMP, preemption, faults, the D-cache ---------------------------------------


def test_four_core_smp_contention(monkeypatch):
    def run():
        system = smp_contention_system("csb", 4, iterations=4)
        system.run(max_cycles=MAX_CYCLES)
        return run_signature(system), [system]

    awake, asleep, slept = _both(monkeypatch, run)
    assert asleep == awake
    assert slept > 0


def test_quantum_preemption(monkeypatch):
    def run():
        system = System(make_config(quantum=150, switch_penalty=30, trace=True))
        region = Region(
            IO_COMBINING_BASE, 8192, PageAttr.UNCACHED_COMBINING, "sink"
        )
        system.attach_device(BurstSink(region))
        for base, signature in ((0, 0x1_0000), (4096, 0x2_0000)):
            source = contending_csb_kernel(
                20, IO_COMBINING_BASE + base, signature=signature
            )
            system.add_process(assemble(source))
        system.run(max_cycles=MAX_CYCLES)
        return run_signature(system), [system]

    awake, asleep, slept = _both(monkeypatch, run)
    assert asleep == awake
    assert slept > 0
    assert awake["stats"]["core.squashed"] > 0


def test_faulted_bus(monkeypatch):
    faults = FaultConfig(
        seed=11, bus_nack_rate=0.2, bus_stall_rate=0.2, device_timeout_rate=0.2
    )

    def run():
        system = System(make_config(faults=faults))
        region = Region(IO_UNCACHED_BASE, 8192, PageAttr.UNCACHED, "sink")
        system.attach_device(BurstSink(region))
        system.add_process(assemble(store_kernel_uncached(512)))
        system.run(max_cycles=MAX_CYCLES)
        return run_signature(system), [system]

    awake, asleep, slept = _both(monkeypatch, run)
    assert asleep == awake
    assert slept > 0
    for site in ("faults.bus_nack", "faults.bus_stall", "faults.device_timeout"):
        assert awake["stats"][site] > 0


def _miss_heavy_loads(lines):
    """Independent cached loads to distinct lines: more misses in flight
    than MSHRs, so later loads poll a full MSHR file."""
    body = [f"ldx [%o0+{i * 64}], %l{i % 8}" for i in range(lines)]
    return "\n".join(["set 0x8000, %o0", "mark 1", *body, "mark 2", "halt"])


def test_dcache_at_mshr_capacity(monkeypatch):
    config = SystemConfig(mem=MemoryConfig(enabled=True, mshrs=2), trace=True)
    run = _program_run(_miss_heavy_loads(16), config)
    awake, asleep, slept = _both(monkeypatch, run)
    assert asleep == awake
    assert slept > 0
    assert awake["metrics"]["cache"]["mshr_stall_cycles"] > 0


# -- streamed replay, sampling, a cluster ---------------------------------------


@pytest.mark.parametrize("discipline", ["uncached", "lock", "csb"])
def test_two_core_streamed_replay(monkeypatch, discipline):
    workload = TraceWorkload(
        name="sleep",
        source="synth:n=60,seed=3,gap=20,devices=4,skew=1.0,sizes=8:3/64:1",
        discipline=discipline,
    )

    def run():
        replay = TraceReplay(workload, SystemConfig(num_cores=2), 50_000_000)
        result = replay.run()
        signature = run_signature(replay.system)
        signature["latency"] = result.latency
        signature["windows"] = result.windows
        return signature, [replay.system]

    awake, asleep, slept = _both(monkeypatch, run)
    assert asleep == awake
    assert slept > 0


def test_sampled_run(monkeypatch):
    sampling = SamplingConfig(
        enabled=True, ff_instructions=64, warmup_cycles=48, window_cycles=96
    )

    def run():
        system = System(make_config(sampling=sampling))
        system.add_process(assemble(store_kernel_uncached(2048)))
        run_sampled(system, max_cycles=MAX_CYCLES)
        signature = run_signature(system)
        signature["sampling"] = system.sampling_report.to_dict()
        return signature, [system]

    awake, asleep, slept = _both(monkeypatch, run)
    assert asleep == awake
    assert slept > 0


def test_cluster_ping_pong(monkeypatch):
    def run():
        node_a, nic_a = _build_node()
        node_b, nic_b = _build_node()
        cluster = Cluster([node_a, node_b])
        cluster.connect(Link(nic_a, nic_b, latency=10))
        for node, kernel in ((node_a, ping_kernel), (node_b, pong_kernel)):
            source = kernel("csb", 4, IO_UNCACHED_BASE, IO_COMBINING_BASE)
            node.add_process(assemble(source))
        cluster.run(max_cycles=1_000_000)
        signature = {
            "cycle": cluster.cycle,
            "nodes": [run_signature(node) for node in cluster.systems],
            "received": [nic_a.received_total, nic_b.received_total],
        }
        return signature, cluster.systems

    awake, asleep, slept = _both(monkeypatch, run)
    assert asleep == awake
    assert slept > 0


# -- the no-progress watchdog ---------------------------------------------------


def _nack_everything():
    config = make_config(faults=FaultConfig(seed=1, bus_nack_rate=1.0))
    system = System(config)
    system.add_process(assemble(store_kernel_uncached(256)))
    return system


def _deadlock(system):
    with pytest.raises(DeadlockError) as caught:
        system.run(max_cycles=MAX_CYCLES)
    return caught.value


def test_watchdog_fires_at_the_same_cycle_while_asleep(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(Core, "_try_sleep", _never_sleep)
        awake = _deadlock(_nack_everything())
    system = _nack_everything()
    asleep = _deadlock(system)
    assert (asleep.cycle, str(asleep)) == (awake.cycle, str(awake))
    assert system.core.slept_ticks > 40_000
    assert asleep.snapshot["cores"][0]["slept_ticks"] == system.core.slept_ticks


def test_deadlock_snapshot_names_the_stuck_state():
    system = _nack_everything()
    error = _deadlock(system)
    snapshot = error.snapshot
    assert snapshot["cycle"] == error.cycle
    (core,) = snapshot["cores"]
    assert core["core"] == 0 and core["pid"] == 1
    # The ROB head is the uncached store the NACKing bus never takes.
    assert core["head"]["op"].startswith("stx")
    assert core["head"]["mem_state"] == "waiting"
    assert core["rob"] > 0 and core["memq"] > 0
    assert core["asleep_until"] is None  # the watchdog runs awake
    depth = system.config.uncached.depth
    assert core["uncached_buffer"] == depth
    assert snapshot["csb_pending_bursts"] == 0
    assert snapshot["bus_in_flight"] == []
    report = error.report()
    assert report.splitlines()[0] == str(error)
    assert "core 0 pid 1: head seq" in report
    assert f"uncached buffer {depth}" in report
    assert "bus: 0 transactions in flight" in report


def test_deadlock_snapshot_lists_every_core_and_bus_transaction():
    faults = FaultConfig(seed=1, bus_stall_rate=1.0)
    system = System(make_config(num_cores=2, faults=faults))
    system.add_process(assemble(store_kernel_uncached(64)), core_id=0)
    system.add_process(assemble(store_kernel_uncached(64)), core_id=1)
    system.run_cycles(40)
    snapshot = system.core.machine_snapshot()
    assert [core["core"] for core in snapshot["cores"]] == [0, 1]
    assert snapshot["bus_in_flight"]
    first = snapshot["bus_in_flight"][0]
    assert first["kind"] == "uncached_store" and first["size"] == 8
