"""Counterexample regression workloads promoted from the model checker.

When the bounded model checker (:mod:`repro.analysis.mc`) finds a
violation under a seeded spec mutation, the interleaving that exposed it
is worth keeping: if the simulator ever grows the same bug, that exact
schedule is where it shows.  A :class:`CounterexampleWorkload` pins one
such interleaving — the litmus test it came from, the per-transition core
id sequence, and the mutation that exposed it — as a named, serializable
regression artifact.

Two things make a promoted workload live beyond its JSON file:

* ``sources()`` lowers each core's litmus program to real assembly
  (:func:`repro.analysis.mc.compile.full_source`), which the analysis
  registry registers as lint targets, and
* ``replay()`` re-runs the pinned schedule through both the abstract spec
  and the detailed simulator, step for step.

:data:`COUNTEREXAMPLES` holds the promoted set.  The schedules were
extracted by running ``csb-figures mc <test> --spec-mutation <m>`` and
completing the violating prefix on the correct spec (see
``repro.analysis.mc.promote``); tests assert they still (a) replay
divergence-free on the correct spec and (b) reproduce their violation
under the mutation that minted them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.common.errors import ConfigError
from repro.common.serialize import Codec


@dataclass(frozen=True)
class CounterexampleWorkload(Codec):
    """One pinned counterexample interleaving of a litmus test."""

    name: str
    #: Name of the litmus test the schedule runs (``repro.analysis.mc.litmus``).
    litmus: str
    description: str
    #: Core id per scheduling decision: each entry runs that core's pending
    #: local chain or its single shared operation (``promote.advance_core``).
    schedule: Tuple[int, ...]
    #: Spec mutation under which this schedule violates its litmus assertion.
    found_with: str = ""

    def test(self):
        from repro.analysis.mc.litmus import get_test

        return get_test(self.litmus)

    def trace(self, mutation=None):
        """Realize the schedule as labelled trace steps (final state too)."""
        from repro.analysis.mc.promote import realize_schedule

        return realize_schedule(self.test().machine(mutation), self.schedule)

    def sources(self) -> List[Tuple[str, str]]:
        """Per-core assembly, named for lint registration."""
        from repro.analysis.mc.compile import full_source

        test = self.test()
        return [
            (f"{self.name}-core{core}", full_source(program))
            for core, program in enumerate(test.programs)
        ]

    def replay(self):
        """Replay the pinned schedule through spec + detailed simulator."""
        from repro.analysis.mc.replay import ReplayReport, replay_schedule

        trace, state = self.trace()
        if not state.all_halted:
            raise ConfigError(
                f"counterexample {self.name!r} schedule is incomplete"
            )
        divergences, ops_run = replay_schedule(self.test(), trace)
        report = ReplayReport(test=self.litmus, schedules=1, steps=ops_run)
        report.divergences.extend(divergences)
        return report

    def check_still_violates(self) -> str:
        """Assert the schedule still trips its litmus assertion under the
        mutation that minted it; returns the violation message.

        Under the mutation, branch outcomes differ from the correct spec,
        so the realization follows the mutated machine's transitions and
        stops early if a core of the pinned sequence has already halted.
        """
        from repro.analysis.mc.promote import advance_core

        test = self.test()
        machine = test.machine(self.found_with)
        state = machine.initial_state()
        for core in self.schedule:
            if state.halted(core):
                break
            _, state = advance_core(machine, state, core)
            if test.invariant is not None:
                message = test.invariant(machine, state)
                if message is not None:
                    return f"invariant: {message}"
        if state.all_halted and test.final is not None:
            message = test.final(machine, state)
            if message is not None:
                return f"final: {message}"
        raise ConfigError(
            f"counterexample {self.name!r} no longer violates "
            f"{self.litmus!r} under mutation {self.found_with!r}"
        )


#: Promoted regression set.  Schedules are core id sequences valid on the
#: correct spec (completed round-robin past the violating prefix).
COUNTEREXAMPLES: Tuple[CounterexampleWorkload, ...] = (
    CounterexampleWorkload(
        name="cx-window-split-cross",
        litmus="window-split-cross",
        description=(
            "Core 1's single-store window interleaves into core 0's "
            "two-store sequence; without the expected-count check the "
            "split window flushes a torn line"
        ),
        schedule=(0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1),
        found_with="skip-expected-check",
    ),
    CounterexampleWorkload(
        name="cx-flush-flush-conflict",
        litmus="flush-flush-conflict",
        description=(
            "Both cores race store/store/flush on one line so each flush "
            "conflicts at least once; a lost combining store publishes a "
            "torn pair"
        ),
        schedule=(0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1),
        found_with="lost-store",
    ),
)


def get_counterexample(name: str) -> CounterexampleWorkload:
    for workload in COUNTEREXAMPLES:
        if workload.name == name:
            return workload
    known = ", ".join(w.name for w in COUNTEREXAMPLES)
    raise ConfigError(f"unknown counterexample {name!r} (have: {known})")
