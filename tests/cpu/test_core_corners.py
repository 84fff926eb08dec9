"""Corner paths of the core: disambiguation, stalls, degenerate configs."""

import gc
from dataclasses import replace

from repro import System, assemble
from repro.common.config import CoreConfig
from repro.cpu.inflight import InFlight
from repro.memory.layout import IO_UNCACHED_BASE
from tests.conftest import make_config

ADDR = 0x4000


def run(source, core=None, **kwargs):
    config = make_config(**kwargs)
    if core is not None:
        config = replace(config, core=core)
    system = System(config)
    system.add_process(assemble(source))
    system.run()
    return system


class TestDisambiguation:
    def test_partial_overlap_load_waits_for_store(self):
        # A 4-byte store into the middle of an 8-byte load's range: the
        # load cannot forward and must wait, but the value must be right.
        system = run(
            "set 0x1122334455667788, %o1\n"
            f"stx %o1, [{ADDR}]\n"
            "set 0xAABBCCDD, %o2\n"
            f"st %o2, [{ADDR + 4}]\n"
            f"ldx [{ADDR}], %o3\n"
            "halt"
        )
        regs = system.scheduler.processes[0].registers
        assert regs.read("%o3") == 0x11223344_AABBCCDD

    def test_narrow_load_forwards_from_wide_store(self):
        system = run(
            "set 0x0102030405060708, %o1\n"
            "mulx %o1, 1, %o1\n"
            f"stx %o1, [{ADDR}]\n"
            f"ldub [{ADDR + 7}], %o2\n"
            "halt"
        )
        assert system.scheduler.processes[0].registers.read("%o2") == 0x08

    def test_load_past_store_to_different_address(self):
        # No overlap: the load may proceed out of order; value untouched.
        system = run(
            f"set 7, %o1\nstx %o1, [{ADDR}]\n"
            f"ldx [{ADDR + 0x100}], %o2\nhalt"
        )
        assert system.scheduler.processes[0].registers.read("%o2") == 0


class TestResourceStalls:
    def test_memq_full_stall_counted(self):
        stores = "".join(f"stx %l0, [{ADDR + 8 * i}]\n" for i in range(24))
        system = run(
            stores + "halt",
            core=CoreConfig(memq_entries=2),
        )
        assert system.stats.get("core.memq_full_stalls") > 0

    def test_rob_full_stall_counted(self):
        body = "".join(f"add %g0, {i}, %o1\n" for i in range(32))
        system = run(
            # A long cache miss at the head backs the ROB up.
            f"ldx [{ADDR}], %o5\n" + body + "halt",
            core=CoreConfig(rob_entries=8),
        )
        assert system.stats.get("core.rob_full_stalls") > 0

    def test_uncached_store_stall_counted_when_buffer_full(self):
        stores = "".join(
            f"stx %l0, [%o1+{8 * i}]\n" for i in range(32)
        )
        system = run(
            f"set {IO_UNCACHED_BASE}, %o1\n" + stores + "halt",
            combine_block=8,
        )
        assert system.stats.get("core.uncached_store_stalls") > 0


class TestDegenerateConfigs:
    def test_scalar_core_still_correct(self):
        system = run(
            "set 10, %o1\nset 0, %o2\n"
            "loop: add %o2, %o1, %o2\nsub %o1, 1, %o1\nbrnz %o1, loop\n"
            f"stx %o2, [{ADDR}]\nhalt",
            core=CoreConfig(
                dispatch_width=1, retire_width=1, int_units=1, fp_units=1
            ),
        )
        assert system.backing.read_int(ADDR, 8) == 55

    def test_tiny_rob_still_correct(self):
        system = run(
            "set 6, %o1\nmulx %o1, %o1, %o2\nmulx %o2, %o2, %o3\n"
            f"stx %o3, [{ADDR}]\nhalt",
            core=CoreConfig(rob_entries=4, memq_entries=1),
        )
        assert system.backing.read_int(ADDR, 8) == 6**4

    def test_ratio_one_bus(self):
        system = run(
            f"set {IO_UNCACHED_BASE}, %o1\n"
            "stx %l0, [%o1]\nstx %l0, [%o1+8]\nhalt",
            cpu_ratio=1,
        )
        assert system.stats.get("bus.transactions") == 2


class TestMisprediction_Knob:
    def test_penalty_knob_slows_branches(self):
        source = (
            "set 40, %o1\nmark a\n"
            "loop: sub %o1, 1, %o1\nbrnz %o1, loop\nmark b\nhalt"
        )
        fast = run(source).span("a", "b")
        slow_system = run(
            source,
            core=CoreConfig(
                perfect_branch_prediction=False, branch_mispredict_penalty=6
            ),
        )
        assert slow_system.span("a", "b") > fast


def _live_records():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is InFlight)


class TestRecordLifetime:
    def test_retired_records_release_their_producers(self):
        # Every add reads the previous iteration's add and sub.  A retired
        # record that kept its producer references would keep the whole
        # chain of retired records alive; only the ROB entries and the
        # producers they read may stay live.
        source = (
            "set 200000, %o1\n"
            "set 0, %o2\n"
            "loop: add %o2, %o1, %o2\n"
            "sub %o1, 1, %o1\n"
            "brnz %o1, loop\n"
            "halt"
        )
        before = _live_records()
        system = System(make_config())
        system.add_process(assemble(source))
        system.run_cycles(20_000)
        assert system.stats.get("core.retired") > 20_000
        live = _live_records() - before
        assert live <= 2 * system.config.core.rob_entries, live
