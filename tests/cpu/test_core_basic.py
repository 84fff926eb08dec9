"""Core functional behavior: ALU programs, branches, loops, dependencies."""

import pytest

from repro.common.errors import DeadlockError
from tests.conftest import run_asm


def regs_after(source, **kwargs):
    system = run_asm(source, **kwargs)
    return system.scheduler.processes[0].registers


class TestStraightLine:
    def test_set_and_add(self):
        regs = regs_after("set 5, %o1\nadd %o1, 3, %o2\nhalt")
        assert regs.read("%o2") == 8

    def test_dependency_chain(self):
        regs = regs_after(
            "set 1, %o1\n"
            "add %o1, %o1, %o2\n"
            "add %o2, %o2, %o3\n"
            "add %o3, %o3, %o4\n"
            "halt"
        )
        assert regs.read("%o4") == 8

    def test_rename_removes_false_dependencies(self):
        # Reuse of %o1 must not corrupt earlier consumers.
        regs = regs_after(
            "set 10, %o1\n"
            "add %o1, 0, %o2\n"
            "set 20, %o1\n"
            "add %o1, 0, %o3\n"
            "halt"
        )
        assert regs.read("%o2") == 10
        assert regs.read("%o3") == 20

    def test_g0_discards_writes(self):
        regs = regs_after("set 42, %g0\nadd %g0, 1, %o1\nhalt")
        assert regs.read("%o1") == 1

    def test_fp_ops(self):
        regs = regs_after(
            "set 6, %o1\n"
            "stx %o1, [0x100]\n"
            "ldd [0x100], %f0\n"
            "fadd %f0, %f0, %f2\n"
            "halt"
        )
        assert regs.read("%f2") == 12


class TestBranches:
    def test_forward_not_taken(self):
        regs = regs_after(
            "set 1, %o1\n"
            "cmp %o1, 2\n"
            "be skip\n"
            "set 99, %o2\n"
            "skip: halt"
        )
        assert regs.read("%o2") == 99

    def test_forward_taken_skips(self):
        regs = regs_after(
            "set 2, %o1\n"
            "cmp %o1, 2\n"
            "be skip\n"
            "set 99, %o2\n"
            "skip: halt"
        )
        assert regs.read("%o2") == 0

    def test_counted_loop(self):
        regs = regs_after(
            "set 10, %o1\n"
            "set 0, %o2\n"
            "loop:\n"
            "add %o2, 3, %o2\n"
            "sub %o1, 1, %o1\n"
            "brnz %o1, loop\n"
            "halt"
        )
        assert regs.read("%o2") == 30

    def test_nested_condition_codes(self):
        regs = regs_after(
            "set 5, %o1\n"
            "cmp %o1, 10\n"
            "bl less\n"
            "set 1, %o3\n"
            "ba out\n"
            "less: set 2, %o3\n"
            "out: halt"
        )
        assert regs.read("%o3") == 2

    def test_unsigned_branch(self):
        # -1 unsigned is huge: bgu taken.
        regs = regs_after(
            "set 0, %o1\n"
            "sub %o1, 1, %o1\n"
            "cmp %o1, 5\n"
            "bgu big\n"
            "set 1, %o2\n"
            "ba out\n"
            "big: set 2, %o2\n"
            "out: halt"
        )
        assert regs.read("%o2") == 2


class TestRetirement:
    def test_retired_instruction_count(self):
        system = run_asm("nop\nnop\nnop\nhalt")
        process = system.scheduler.processes[0]
        assert process.retired_instructions == 4
        assert process.halted

    def test_marks_record_retire_cycles_in_order(self):
        system = run_asm("mark a\nnop\nnop\nnop\nnop\nnop\nmark b\nhalt")
        assert system.stats.marks["b"] >= system.stats.marks["a"]

    def test_infinite_loop_hits_watchdog(self):
        # A spin retires every cycle, so the clock driver's max_cycles
        # ends it, not the no-progress watchdog.
        with pytest.raises(DeadlockError) as caught:
            run_asm("loop: ba loop\nhalt", max_cycles=100_000)
        assert caught.value.cycle == 100_000


class TestStats:
    def test_dispatch_issue_retire_counts_consistent(self):
        system = run_asm("set 1, %o1\nadd %o1, 1, %o2\nhalt")
        stats = system.stats
        assert stats.get("core.retired") == 3
        # halt never goes through a functional unit.
        assert stats.get("core.issued") == 2
