"""Precise interrupts: squash, undo, exactly-once for uncached work."""

import pytest

from repro import System, assemble
from repro.memory.layout import IO_COMBINING_BASE, IO_UNCACHED_BASE
from tests.conftest import make_config

ADDR = 0x4000

#: Two cached stores behind a multiply, so they are in flight a while.
STORES = (
    "set 1, %o1\n"
    "mulx %o1, %o1, %o1\n"    # pad so the store is in flight
    f"set {ADDR}, %o2\n"
    "set 7, %l0\n"
    "stx %l0, [%o2]\n"
    "set 9, %l1\n"
    f"stx %l1, [{ADDR + 8}]\n"
    "halt"
)

#: A cached swap behind the same multiply.
SWAP = (
    "set 1, %o1\n"
    "mulx %o1, %o1, %o1\n"
    f"set {ADDR}, %o2\n"
    "set 7, %l0\n"
    "swap [%o2], %l0\n"
    "halt"
)


def squash_after(source, cycles, registers=(), memory=()):
    """Preset registers and memory words, run ``cycles``, deliver an
    interrupt and let the squash complete; the system and process as the
    squash left them."""
    system = System(make_config())
    process = system.add_process(assemble(source))
    for name, value in registers:
        process.set_register(name, value)
    for address, value in memory:
        system.backing.write_int(address, value, 8)
    system.run_cycles(cycles)
    system.core.interrupt()
    while not system.core.drained:
        system.step()
    return system, process


def interrupt_after(source, cycles, registers=()):
    """Run ``cycles``, deliver an interrupt, squash, then resume and finish."""
    system, process = squash_after(source, cycles, registers)
    # Simulate the OS returning to the same process.
    system.core.install_context(process)
    system.run()
    return system


def _words(system, *addresses):
    return tuple(system.backing.read_int(address, 8) for address in addresses)


class TestSquashCorrectness:
    def test_cached_stores_undone_and_replayed(self):
        system = interrupt_after(STORES, cycles=3)
        assert system.backing.read_int(ADDR, 8) == 7
        assert system.backing.read_int(ADDR + 8, 8) == 9

    @pytest.mark.parametrize("cycles, left", [(3, (5, 0)), (5, (7, 0))])
    def test_squash_restores_what_unretired_stores_overwrote(self, cycles, left):
        # Both stores write memory at dispatch.  The squash puts back the
        # bytes each unretired one overwrote; by cycle 5 the first store
        # has retired, so its 7 stays.
        system, _ = squash_after(STORES, cycles, memory=[(ADDR, 5)])
        assert _words(system, ADDR, ADDR + 8) == left

    def test_cached_swap_undone_and_replayed(self):
        system, process = squash_after(SWAP, 3, memory=[(ADDR, 5)])
        assert _words(system, ADDR) == (5,)
        system.core.install_context(process)
        system.run()
        assert _words(system, ADDR) == (7,)
        assert process.registers.read("l0") == 5

    def test_loop_counter_correct_after_interrupt(self):
        source = (
            "set 100, %o1\n"
            "set 0, %o2\n"
            "loop: add %o2, 1, %o2\n"
            "sub %o1, 1, %o1\n"
            "brnz %o1, loop\n"
            f"stx %o2, [{ADDR}]\n"
            "halt"
        )
        system = interrupt_after(source, cycles=20)
        assert system.backing.read_int(ADDR, 8) == 100

    def test_uncached_store_is_not_duplicated(self):
        # An uncached store that retired before the interrupt must not be
        # re-executed; one that had not retired executes exactly once later.
        from repro.devices.sink import BurstSink
        from repro.memory.layout import PageAttr, Region

        system = System(make_config())
        region = Region(IO_UNCACHED_BASE, 8192, PageAttr.UNCACHED, "sink")
        sink = system.attach_device(BurstSink(region))
        process = system.add_process(
            assemble(
                f"set {IO_UNCACHED_BASE}, %o1\n"
                "set 1, %l0\nstx %l0, [%o1]\n"
                "set 2, %l0\nstx %l0, [%o1+8]\n"
                "set 3, %l0\nstx %l0, [%o1+16]\n"
                "halt"
            )
        )
        system.run_cycles(8)
        system.core.interrupt()
        while not system.core.drained:
            system.step()
        system.core.install_context(process)
        system.run()
        # Each of the three stores reached the device exactly once.
        offsets = sorted(offset for offset, _ in sink.log)
        assert offsets == [0, 8, 16]

    def test_interrupt_mid_csb_sequence_causes_conflict_then_retry(self):
        # The paper's §3.2 scenario, deterministically: interrupt after the
        # combining stores started retiring but before the flush retired.
        system = System(make_config())
        process = system.add_process(
            assemble(
                f"set {IO_COMBINING_BASE}, %o1\n"
                ".RETRY:\n"
                "set 4, %l4\n"
                "stx %l0, [%o1]\n"
                "stx %l0, [%o1+8]\n"
                "stx %l0, [%o1+16]\n"
                "stx %l0, [%o1+24]\n"
                "swap [%o1], %l4\n"
                "cmp %l4, 4\n"
                "bnz .RETRY\n"
                "halt"
            )
        )
        # Run until some (not all) combining stores retired.
        while system.stats.get("csb.stores") < 2:
            system.step()
        system.core.interrupt()
        while not system.core.drained:
            system.step()
        # A competitor touches the CSB while our process is descheduled.
        system.unit.issue_store(IO_COMBINING_BASE, 8, 0xFF, pid=99)
        system.core.install_context(process)
        system.run()
        assert system.stats.get("csb.flush_conflicts") >= 1
        assert system.stats.get("csb.flushes") == 1  # the retry succeeded

    def test_interrupt_waits_for_issued_uncached_op(self):
        # An uncached load already on the bus cannot be squashed.
        system = System(make_config())
        system.backing.write_int(IO_UNCACHED_BASE, 0xAA, 8)
        process = system.add_process(
            assemble(f"ldx [{IO_UNCACHED_BASE}], %o2\nhalt")
        )
        # Step until the load has been issued to the uncached unit.
        from repro.cpu.inflight import MemState

        while not any(
            f.mem_state is MemState.ISSUED_UNCACHED for f in system.core._rob
        ):
            system.step()
        system.core.interrupt()
        system.step()
        assert not system.core.drained  # squash deferred
        while not system.core.drained:
            system.step()
        system.core.install_context(process)
        system.run()
        # The load executed exactly once.
        loads = [r for r in system.stats.transactions if r.kind == "uncached_load"]
        assert len(loads) == 1
        assert process.registers.read("%o2") == 0xAA
