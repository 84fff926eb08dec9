"""Cross-validation: replay enumerated schedules through the detailed simulator.

The bounded model checker's verdicts are only as good as the spec's
fidelity to the simulated hardware, so every *deterministic* litmus test
(no NACK budget) can be replayed: each enumerated schedule is forced
through the detailed out-of-order simulator one abstract operation at a
time, and after every operation the simulator's architectural state —
litmus registers, the CSB's exported window, and every watched memory
word — must equal the spec's.  A mismatch is a :class:`Divergence`;
"simulator behavior is contained in spec behavior" holds exactly when no
schedule diverges.

Mechanics: each abstract op lowers to a standalone mini-program ending in
``halt`` (:func:`~repro.analysis.mc.compile.step_source`), installed via
the :class:`~repro.sim.scheduler.CoreScheduler` schedule-forcing hook
(``force_install``/``force_park``, added for this driver and inert
otherwise).  Running each step to full quiescence means a conditional
flush's burst has landed in memory before the next core moves — the same
atomicity the spec's single-step flush assumes.  Architectural registers
persist across steps through RegisterFile snapshots; branch outcomes are
read back from the probe program's final program counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.common.serialize import Codec, to_document
from repro.cpu.context import ProcessContext
from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.isa.registers import MASK64, RegisterFile, canonical_register
from repro.sim.system import System
from repro.analysis.mc.compile import (
    BRANCH_FALL_PC,
    BRANCH_TAKEN_PC,
    step_source,
)
from repro.analysis.mc.explore import Budget, TraceStep, enumerate_schedules
from repro.analysis.mc.litmus import LINE_SIZE, LitmusTest
from repro.analysis.mc.spec import (
    WORD,
    BranchNZ,
    BranchZ,
    CombStore,
    CondFlush,
    DevLoad,
    DevStore,
    Goto,
    LockRelease,
    LockSwap,
    SpecState,
)

#: Cycle cap for one abstract step (install → halt → quiescent).  Real
#: steps take tens of cycles; hitting this means the simulator wedged.
_STEP_CYCLE_CAP = 20_000


@dataclass(frozen=True)
class Divergence(Codec):
    """One spec/simulator mismatch during replay."""

    schedule_index: int
    step_index: int
    core: int
    op_index: int
    what: str
    expected: str
    actual: str

    def render(self) -> str:
        return (
            f"schedule {self.schedule_index}, step {self.step_index} "
            f"(core {self.core}, op {self.op_index}): {self.what}: "
            f"spec={self.expected} sim={self.actual}"
        )


@dataclass
class ReplayReport:
    """Outcome of replaying one litmus test's enumerated schedules."""

    test: str
    schedules: int
    steps: int
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> Dict[str, object]:
        return {**to_document(self), "ok": self.ok}


def watched_words(test: LitmusTest) -> List[int]:
    """Every word address whose value the spec models: lock words, device
    words, and each word of every combining line the test touches."""
    addrs: Set[int] = set()
    for program in test.programs:
        for op in program.ops:
            if isinstance(op, (LockSwap, LockRelease, DevStore, DevLoad)):
                addrs.add(op.addr)
            elif isinstance(op, (CombStore, CondFlush)):
                line = op.addr & ~(LINE_SIZE - 1)
                addrs.update(range(line, line + LINE_SIZE, WORD))
    return sorted(addrs)


def _litmus_regs(test: LitmusTest) -> List[Tuple[int, str]]:
    regs: Set[Tuple[int, str]] = set()
    for core, program in enumerate(test.programs):
        for op in program.ops:
            reg = getattr(op, "reg", None)
            if reg is not None:
                regs.add((core, reg))
    return sorted(regs)


class _StepPrograms:
    """Assembled per-op mini-programs, one per (core, op index)."""

    def __init__(self, test: LitmusTest) -> None:
        self._programs: Dict[Tuple[int, int], Program] = {}
        for core, program in enumerate(test.programs):
            for index, op in enumerate(program.ops):
                self._programs[(core, index)] = assemble(
                    step_source(op), name=f"{test.name}-c{core}-op{index}"
                )

    def get(self, core: int, index: int) -> Program:
        return self._programs[(core, index)]


def replay_schedule(
    test: LitmusTest,
    schedule: Sequence[TraceStep],
    schedule_index: int = 0,
    step_programs: Optional[_StepPrograms] = None,
) -> Tuple[List[Divergence], int]:
    """Replay one schedule; returns (divergences, abstract ops executed).

    Only deterministic tests replay: the spec step for every op must have
    exactly one successor (``max_nacks == 0``).
    """
    if not test.replayable:
        raise ConfigError(
            f"litmus test {test.name!r} has a NACK budget and is not "
            "deterministically replayable"
        )
    machine = test.machine()
    programs = step_programs or _StepPrograms(test)
    words = watched_words(test)
    regs = _litmus_regs(test)

    system = System(SystemConfig(num_cores=len(test.programs)))
    for queue in system.scheduler.queues:
        queue.held = True
    snapshots = [RegisterFile().snapshot() for _ in test.programs]

    divergences: List[Divergence] = []
    state = machine.initial_state()
    ops_run = 0

    def mismatch(step_index: int, core: int, op_index: int,
                 what: str, expected: object, actual: object) -> None:
        divergences.append(
            Divergence(
                schedule_index=schedule_index,
                step_index=step_index,
                core=core,
                op_index=op_index,
                what=what,
                expected=repr(expected),
                actual=repr(actual),
            )
        )

    for step_index, step in enumerate(schedule):
        for op_index in step.ops:
            if state.pc(step.core) != op_index:
                raise ConfigError(
                    f"schedule step {step_index} expects core {step.core} "
                    f"at op {op_index}, spec is at {state.pc(step.core)}"
                )
            op = machine.next_op(state, step.core)
            successors = machine.step(state, step.core)
            assert len(successors) == 1, "replayable tests are deterministic"
            _, state = successors[0]
            ops_run += 1

            context = _run_step(
                system, step.core, programs.get(step.core, op_index),
                snapshots[step.core],
            )
            snapshots[step.core] = context.registers.snapshot()

            # Branch probes: the final pc reveals the simulator's decision.
            if isinstance(op, (Goto, BranchNZ, BranchZ)):
                if isinstance(op, Goto):
                    taken = True
                elif isinstance(op, BranchNZ):
                    taken = state.reg(step.core, op.reg) != 0
                else:
                    taken = state.reg(step.core, op.reg) == 0
                expected_pc = BRANCH_TAKEN_PC if taken else BRANCH_FALL_PC
                if context.pc != expected_pc:
                    mismatch(step_index, step.core, op_index,
                             "branch outcome", expected_pc, context.pc)
            _compare_state(
                system, machine, state, test, words, regs, snapshots,
                lambda what, exp, act: mismatch(
                    step_index, step.core, op_index, what, exp, act
                ),
            )
            if divergences:
                return divergences, ops_run
    if not state.all_halted:
        raise ConfigError("schedule ended before every core halted")
    return divergences, ops_run


def _run_step(
    system: System, core: int, program: Program, snapshot: Dict[str, int]
) -> ProcessContext:
    """Run one mini-program on ``core`` to architectural quiescence."""
    context = ProcessContext(core + 1, program, name=program.name)
    context.registers.restore(snapshot)
    queue = system.scheduler.queues[core]
    queue.force_install(context)
    cycles = 0
    while not (
        context.halted and system.cores[core].drained and system._quiescent()
    ):
        system.step()
        cycles += 1
        if cycles > _STEP_CYCLE_CAP:
            raise ConfigError(
                f"step program {program.name} did not quiesce within "
                f"{_STEP_CYCLE_CAP} cycles"
            )
    queue.force_park()
    return context


def _compare_state(system, machine, state: SpecState, test, words, regs,
                   snapshots, report) -> None:
    # Litmus registers: the stepped core's snapshot was just refreshed and
    # no other core ran, so the snapshots are the live architectural state.
    for core, reg in regs:
        sim_value = snapshots[core][canonical_register(reg)]
        if sim_value != state.reg(core, reg) & MASK64:
            report(f"c{core} %{reg}", state.reg(core, reg), sim_value)
            return
    line, owner, spec_words, counter = state.csb
    sim_line, sim_pid, sim_data, sim_valid, sim_counter = system.csb.export_state()
    expected_pid = None if owner is None else owner + 1
    if sim_line != line or sim_pid != expected_pid or sim_counter != counter:
        report(
            "csb window",
            (line, expected_pid, counter),
            (sim_line, sim_pid, sim_counter),
        )
        return
    expected_data = bytearray(machine.line_size)
    expected_valid = [False] * machine.line_size
    for offset, value in spec_words:
        expected_data[offset:offset + WORD] = value.to_bytes(WORD, "big")
        for i in range(offset, offset + WORD):
            expected_valid[i] = True
    if bytes(expected_data) != sim_data or tuple(expected_valid) != sim_valid:
        report(
            "csb data",
            dict(spec_words),
            {"data": sim_data.hex(), "valid": sum(sim_valid)},
        )
        return
    for addr in words:
        sim_word = system.backing.read_int(addr, WORD)
        if sim_word != state.word(addr):
            report(f"mem[0x{addr:x}]", state.word(addr), sim_word)
            return


def replay_test(
    test: LitmusTest,
    budget: Optional[Budget] = None,
    max_schedules: Optional[int] = None,
) -> ReplayReport:
    """Enumerate ``test``'s complete schedules and replay every one."""
    schedules = enumerate_schedules(test.machine(), budget, max_schedules)
    if not schedules:
        raise ConfigError(
            f"no complete schedules of {test.name!r} within the budget"
        )
    programs = _StepPrograms(test)
    report = ReplayReport(test=test.name, schedules=len(schedules), steps=0)
    for index, schedule in enumerate(schedules):
        divergences, ops_run = replay_schedule(
            test, schedule, schedule_index=index, step_programs=programs
        )
        report.steps += ops_run
        report.divergences.extend(divergences)
        if divergences:
            break
    return report
