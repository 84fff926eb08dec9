"""The clock driver is cycle-identical to stepping ``System.step`` by hand.

Every run loop of the simulator goes through one hoisted driver.  Each
case here runs a system twice — once through the driver and once through
:func:`stepped`, a loop over the readable reference :meth:`System.step`
with the driver's stop rules — and the cycle count, every counter, the
marks, the transaction records, the metrics snapshot and the pipeline
trace must agree exactly.  The goldens and the sleeping suite give
breadth; these cases cover each wiring the driver binds differently.
"""

from __future__ import annotations

import pytest

from repro.common.config import MemoryConfig, SystemConfig
from repro.common.errors import DeadlockError
from repro.devices.base import DeviceAlias
from repro.devices.ring import DescriptorRing
from repro.devices.sink import BurstSink
from repro.evaluation.smp_contention import smp_contention_system
from repro.faults.config import FaultConfig
from repro.isa.assembler import assemble
from repro.memory.layout import IO_COMBINING_BASE, IO_UNCACHED_BASE, PageAttr, Region
from repro.sim.system import System
from repro.workloads.contention import contending_csb_kernel
from repro.workloads.spec import TraceWorkload
from repro.workloads.storebw import store_kernel_csb, store_kernel_uncached
from repro.workloads.traces.compile import (
    compile_window,
    ring_combining_region,
    ring_region,
)
from repro.workloads.traces.replay import TraceReplay
from repro.workloads.traces.synth import parse_synth_spec, synthesize

from tests.conftest import make_config, ring_state, run_signature

MAX_CYCLES = 2_000_000
SYNTH = "synth:n=48,seed=5,gap=300,devices=2,skew=1.0,sizes=8:3/64:1"
RING_SYNTH = "synth:n=12,seed=5,gap=40,devices=1,skew=1.0,sizes=8:3/64:1"


def stepped(system, feed=None, until=None, max_cycles=MAX_CYCLES):
    """The driver's stop rules over :meth:`System.step`: ask ``feed`` for
    work whenever the machine is finished, stop when it has none or at
    ``until``, and fail at ``max_cycles``."""
    while True:
        if system.finished:
            if feed is None or not feed(system):
                return
            if system.scheduler.all_halted:
                raise DeadlockError(
                    "stream feed returned True without adding work",
                    cycle=system.cycle,
                )
        if until is not None and system.cycle >= until:
            return
        if system.cycle >= max_cycles:
            raise DeadlockError(
                f"exceeded max_cycles={max_cycles}", cycle=system.cycle
            )
        system.step()


def _program(source, config):
    system = System(config)
    system.add_process(assemble(source, name="driver"))
    return system


def _ring_system():
    """One core storing trace records into a ring through its combining
    alias: the devices trace replay attaches, ticked every bus cycle."""
    system = System(SystemConfig(trace=True))
    base, size = ring_region(0)
    ring = DescriptorRing(Region(base, size, PageAttr.UNCACHED, "ring0"), name="ring0")
    system.attach_device(ring)
    alias_base, alias_size = ring_combining_region(0)
    alias = Region(alias_base, alias_size, PageAttr.UNCACHED_COMBINING, "ring0-csb")
    system.attach_device(DeviceAlias(alias, ring))
    records = synthesize(parse_synth_spec(RING_SYNTH))
    (window,) = compile_window(list(records), "csb", 1)
    system.add_process(assemble(window.source))
    return system


def _dirty_evictions():
    """Stores to lines that share one D-cache set: dirty victims queue
    write-backs, and the machine must drain them after the halt."""
    system = System(SystemConfig(mem=MemoryConfig(enabled=True, mshrs=2), trace=True))
    stores = [f"stx %l0, [%o0+{k * 8192}]" for k in range(6)]
    system.add_process(assemble("\n".join(["set 0x8000, %o0", *stores, "halt"])))
    return system


def _preempted():
    system = System(make_config(quantum=150, switch_penalty=30, trace=True))
    region = Region(IO_COMBINING_BASE, 8192, PageAttr.UNCACHED_COMBINING, "sink")
    system.attach_device(BurstSink(region))
    for base, signature in ((0, 0x1_0000), (4096, 0x2_0000)):
        source = contending_csb_kernel(
            20, IO_COMBINING_BASE + base, signature=signature
        )
        system.add_process(assemble(source))
    return system


def _faulted():
    faults = FaultConfig(
        seed=11, bus_nack_rate=0.2, bus_stall_rate=0.2, device_timeout_rate=0.2
    )
    system = System(make_config(faults=faults))
    region = Region(IO_UNCACHED_BASE, 8192, PageAttr.UNCACHED, "sink")
    system.attach_device(BurstSink(region))
    system.add_process(assemble(store_kernel_uncached(512)))
    return system


SYSTEMS = {
    "store-uncached": lambda: _program(
        store_kernel_uncached(1024), make_config(trace=True)
    ),
    "store-csb": lambda: _program(store_kernel_csb(1024, 64), make_config(trace=True)),
    "ring-and-alias": _ring_system,
    "smp-4-cores": lambda: smp_contention_system("csb", 4, iterations=4),
    "dcache-bus-traffic": _dirty_evictions,
    "quantum-preemption": _preempted,
    "faulted": _faulted,
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_run_matches_stepping(name):
    driven = SYSTEMS[name]()
    driven.run(max_cycles=MAX_CYCLES)
    reference = SYSTEMS[name]()
    stepped(reference)
    assert run_signature(driven) == run_signature(reference)


def test_dirty_victims_drain_after_the_halt():
    # The D-cache case is not vacuous: its engines still hold work when
    # the core halts, and the driver's finish check waits them out.
    system = _dirty_evictions()
    while not system.scheduler.all_halted:
        system.step()
    halted_at = system.cycle
    system.advance()
    assert system.cycle > halted_at
    assert system.stats.get("writeback.issued") > 0


@pytest.mark.parametrize("chunk", [1, 7, 997])
def test_run_in_chunks_matches_one_run(chunk):
    whole = SYSTEMS["store-csb"]()
    whole.run(max_cycles=MAX_CYCLES)
    chunked = SYSTEMS["store-csb"]()
    while not chunked.finished:
        start = chunked.cycle
        ran = chunked.advance(until=start + chunk)
        assert ran == chunked.cycle - start
        assert ran == chunk or chunked.finished
    assert run_signature(chunked) == run_signature(whole)


def test_a_feed_clock_jump_is_not_counted_as_ticked():
    def feed(system):
        if system.scheduler.processes:
            return False
        system.cycle = 10_000  # an idle gap, skipped while drained
        system.add_process(assemble("halt"))
        return True

    system = System(SystemConfig())
    ran = system.advance(feed=feed)
    assert ran > 0
    assert system.cycle == 10_000 + ran


def test_max_cycles_fails_at_the_same_cycle():
    driven, reference = (_program("x: ba x\nhalt", make_config()) for _ in range(2))
    with pytest.raises(DeadlockError) as failed:
        driven.run(max_cycles=5_000)
    with pytest.raises(DeadlockError):
        stepped(reference, max_cycles=5_000)
    assert failed.value.cycle == 5_000
    assert run_signature(driven) == run_signature(reference)


def test_two_core_streamed_replay(monkeypatch):
    workload = TraceWorkload(name="driver", source=SYNTH, discipline="csb", window=8)

    def replay():
        replay = TraceReplay(workload, SystemConfig(num_cores=2))
        result = replay.run()
        signature = run_signature(replay.system)
        signature["latency"] = result.latency
        signature["windows"] = result.windows
        return signature

    def stepped_streamed(system, feed, max_cycles=MAX_CYCLES):
        stepped(system, feed=feed, max_cycles=max_cycles)
        return system.stats

    driven = replay()
    with monkeypatch.context() as patch:
        patch.setattr(System, "run_streamed", stepped_streamed)
        reference = replay()
    assert driven == reference
    assert driven["windows"] == 6


# -- gap-integrating devices, ticked lazily ------------------------------------


def _ring_kernel(bases, lead=0, span=3_000):
    """Stores into the ring at each of ``bases`` in turn and reads its
    registers back (summed into %l5); each burst follows a register-only
    countdown of ``span`` trips, long spans no transaction touches (the
    core spins and the driver jumps them), so the transactions reach one
    ring at a time.  A ``lead`` countdown first makes the first write
    come mid-run."""

    def wait(label, trips):
        return [
            f"set {trips}, %l6",
            f".{label}:",
            "sub %l6, 1, %l6",
            f"brnz %l6, .{label}",
        ]

    lines = ["set 1, %l0", "set 0, %l5"]
    if lead:
        lines += wait("LEAD", lead)
    for k, base in enumerate(bases):
        lines += [f"set {base}, %o0"]
        lines += ["stx %l0, [%o0]"] * 4
        lines += wait(f"GAP{k}A", span)
        lines += ["ldx [%o0+8], %l1", "stx %l0, [%o0]", "ldx [%o0], %l2"]
        lines += wait(f"GAP{k}B", span)
        lines += ["ldx [%o0+16], %l3", "ldx [%o0+24], %l4"]
        lines += [f"add %l5, %l{reg}, %l5" for reg in (1, 2, 3, 4)]
    lines.append("halt")
    return "\n".join(lines)


def _small_ring(system, index):
    """Attach a ring that overflows and drains: capacity 2, one drain
    every 16 bus cycles."""
    base, size = ring_region(index)
    region = Region(base, size, PageAttr.UNCACHED, f"ring{index}")
    ring = DescriptorRing(region, capacity=2, service_cycles=16, name=f"ring{index}")
    system.attach_device(ring)
    return ring


def _lazy_ring_system(lead=0):
    """One core and one small ring."""
    system = System(SystemConfig())
    ring = _small_ring(system, 0)
    system.add_process(assemble(_ring_kernel([ring.region.base], lead), name="ring"))
    return system, ring


def _lazy_rings_system(count=4):
    """One core and ``count`` small rings, written and read one ring at a
    time; the last one through a plain-uncached alias."""
    system = System(SystemConfig())
    rings = [_small_ring(system, index) for index in range(count)]
    base, size = ring_region(count)
    alias = Region(base, size, PageAttr.UNCACHED, "alias")
    system.attach_device(DeviceAlias(alias, rings[-1]))
    bases = [ring.region.base for ring in rings[:-1]] + [base]
    system.add_process(assemble(_ring_kernel(bases, span=500), name="rings"))
    return system, rings


def _ring_run(system, *rings):
    """The run signature, the rings' states and the registers the program
    read the rings' counters into."""
    signature = run_signature(system)
    signature["rings"] = [ring_state(ring) for ring in rings]
    signature["registers"] = [
        process.registers.snapshot() for process in system.scheduler.processes
    ]
    return signature


@pytest.mark.parametrize(
    "lead", [0, 2_000], ids=["long-spans", "first-written-mid-run"]
)
def test_lazy_ring_matches_stepping(lead):
    driven, ring = _lazy_ring_system(lead)
    calls = []
    tick = ring.tick
    ring.tick = lambda bus_cycle: calls.append(bus_cycle) or tick(bus_cycle)
    driven.run(max_cycles=MAX_CYCLES)
    reference, reference_ring = _lazy_ring_system(lead)
    stepped(reference)
    assert _ring_run(driven, ring) == _ring_run(reference, reference_ring)
    assert driven.jumped_cycles > 5_000
    assert reference_ring.drops > 0 and reference_ring.drained > 0
    # Its first tick, one before each of the nine transactions, the end.
    assert len(calls) <= 11 < ring.ticks


def test_lazy_rings_tick_only_where_a_transaction_lands():
    # Four rings, the transactions reaching one at a time (the last ring's
    # through its alias): each ring is caught up only before its own.
    driven, rings = _lazy_rings_system()
    calls = {}
    for ring in rings:
        tick = ring.tick
        ring.tick = lambda bus_cycle, ring=ring, tick=tick: (
            calls.setdefault(ring.name, []).append(bus_cycle) or tick(bus_cycle)
        )
    driven.run(max_cycles=MAX_CYCLES)
    reference, reference_rings = _lazy_rings_system()
    stepped(reference)
    assert _ring_run(driven, *rings) == _ring_run(reference, *reference_rings)
    assert driven.stats.get("bus.transactions") == 36
    for ring in reference_rings:
        assert ring.drops > 0 and ring.drained > 0
    # Each ring: its first tick, one before each of its nine
    # transactions, the end.
    assert [len(calls[ring.name]) for ring in rings] == [11, 11, 11, 11]


def test_lazy_ring_read_back_when_advance_returns_mid_span():
    # Each ``until`` falls inside a countdown (or a burst): the ring reads
    # back as ticking every bus cycle up to that point left it.
    driven, ring = _lazy_ring_system()
    reference, reference_ring = _lazy_ring_system()
    for until in (50, 1_000, 2_999, 3_400, 5_000, 6_000):
        driven.advance(until=until, max_cycles=MAX_CYCLES)
        stepped(reference, until=until)
        assert driven.cycle == reference.cycle == until
        assert ring_state(ring) == ring_state(reference_ring)
        assert run_signature(driven) == run_signature(reference)
    driven.run(max_cycles=MAX_CYCLES)
    stepped(reference)
    assert _ring_run(driven, ring) == _ring_run(reference, reference_ring)


def test_lazy_ring_read_back_after_a_feed_clock_jump():
    # The feed reads the ring when the machine is finished, jumps the clock
    # over an idle gap and adds a program that writes and reads it again:
    # the gap integrates into the ring, lazily or ticked.
    def build():
        system, ring = _lazy_ring_system()
        seen = []
        base = ring.region.base

        def feed(system):
            seen.append((system.cycle, ring_state(ring)))
            if len(seen) > 2:
                return False
            system.cycle += 4_000  # an idle gap, skipped while drained
            system.add_process(assemble(_ring_kernel([base], span=500)))
            return True

        return system, ring, seen, feed

    driven, ring, seen, feed = build()
    driven.advance(feed=feed, max_cycles=MAX_CYCLES)
    reference, reference_ring, reference_seen, reference_feed = build()
    stepped(reference, feed=reference_feed)
    assert seen == reference_seen
    assert _ring_run(driven, ring) == _ring_run(reference, reference_ring)
    assert len(seen) == 3
