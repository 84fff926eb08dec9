"""Bounded exploration of cross-core interleavings of a litmus test.

``explore`` walks the reachable state space of a
:class:`~repro.analysis.mc.spec.SpecMachine` breadth-first with canonical
state hashing (states are frozen nested tuples, so the visited set is an
ordinary hash set) and a partial-order reduction: when any enabled core's
next operation is core-local, only that core's maximal local chain is
expanded (local operations commute with everything another core can do,
so exploring the other interleavings of the chain adds no new shared
behavior).  The reduction is sound for the invariants litmus tests state
because every shared-state change and every entry to a region guarded by
a shared operation still materializes as an explored state; invariants
must not depend on the *relative order* of two cores' local operations,
which no shipped litmus test does.

Violations reuse the PR-3 ``Finding`` JSON idiom: frozen records with
``to_dict`` shapes that are part of the tool contract, serialized with
sorted keys so output is byte-stable across Python versions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.serialize import Codec, to_document
from repro.analysis.mc.spec import SpecMachine, SpecState, is_local

#: Safety cap on one core-local chain: a longer chain means the litmus
#: program loops without touching shared state, which the stutter pruning
#: in schedule enumeration cannot bound.
_MAX_LOCAL_CHAIN = 128


@dataclass(frozen=True)
class Budget:
    """Exploration budget: states visited, transition depth, violations
    collected before the search stops early."""

    max_states: int = 50_000
    max_depth: int = 80
    max_violations: int = 8

    def __post_init__(self) -> None:
        if self.max_states < 1 or self.max_depth < 1 or self.max_violations < 1:
            raise ConfigError("budget fields must be >= 1")


@dataclass(frozen=True)
class TraceStep(Codec):
    """One transition of an interleaving: the core that moved, the op
    indices it executed (several for a chained local run), and a human
    label."""

    core: int
    ops: Tuple[int, ...]
    label: str


@dataclass(frozen=True)
class Violation(Codec):
    """One counterexample: the full interleaving from the initial state
    to the violating state, plus that state's rendering.

    ``kind`` is ``invariant`` (a property that must hold in every
    reachable state failed) or ``final`` (a property of fully halted
    states failed).  ``schedule`` is the per-transition core id sequence
    — the replayable essence of the trace.
    """

    kind: str
    test: str
    message: str
    depth: int
    schedule: Tuple[int, ...]
    trace: Tuple[TraceStep, ...] = field(compare=False)
    state: Dict[str, object] = field(compare=False)

    def render(self) -> str:
        lines = [
            f"{self.test}: {self.kind} violation at depth {self.depth}: "
            f"{self.message}"
        ]
        for step in self.trace:
            lines.append(f"    {step.label}")
        return "\n".join(lines)


@dataclass
class CheckResult:
    """Outcome of exploring one litmus test."""

    test: str
    description: str
    states: int
    transitions: int
    max_depth_seen: int
    complete: bool
    violations: List[Violation]
    mutation: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {**to_document(self), "ok": self.ok}


def results_to_json(results: List[CheckResult], budget: Budget) -> str:
    """The stable ``csb-figures mc --json`` document (sorted keys)."""
    document = {
        "schema": "csb-mc-1",
        "budget": {
            "max_states": budget.max_states,
            "max_depth": budget.max_depth,
            "max_violations": budget.max_violations,
        },
        "results": [result.to_dict() for result in results],
        "total_violations": sum(len(r.violations) for r in results),
    }
    return json.dumps(document, indent=2, sort_keys=True)


# -- successor generation (shared by explore and schedule enumeration) ----------


def successors(
    machine: SpecMachine, state: SpecState
) -> List[Tuple[TraceStep, SpecState]]:
    """All transitions out of ``state`` under the partial-order reduction.

    If some enabled core's next op is local, return exactly that core's
    maximal local chain (a single transition).  Otherwise every enabled
    core's next op touches shared state and each of its successors is a
    separate transition.
    """
    enabled = machine.enabled(state)
    for core in enabled:
        if is_local(machine.next_op(state, core)):
            return [_local_chain(machine, state, core)]
    result: List[Tuple[TraceStep, SpecState]] = []
    for core in enabled:
        pc = state.pc(core)
        for label, new_state in machine.step(state, core):
            result.append((TraceStep(core, (pc,), label), new_state))
    return result


def _local_chain(
    machine: SpecMachine, state: SpecState, core: int
) -> Tuple[TraceStep, SpecState]:
    ops: List[int] = []
    labels: List[str] = []
    for _ in range(_MAX_LOCAL_CHAIN):
        ops.append(state.pc(core))
        steps = machine.step(state, core)
        assert len(steps) == 1, "local ops are deterministic"
        label, state = steps[0]
        labels.append(label)
        if state.halted(core) or not is_local(machine.next_op(state, core)):
            return (TraceStep(core, tuple(ops), "; ".join(labels)), state)
    raise ConfigError(
        f"core {core} ran {_MAX_LOCAL_CHAIN} local ops without touching "
        "shared state — the litmus program loops locally forever"
    )


# -- breadth-first exploration --------------------------------------------------


def explore(
    machine: SpecMachine,
    test_name: str,
    description: str = "",
    invariant: Optional[Callable[[SpecMachine, SpecState], Optional[str]]] = None,
    final: Optional[Callable[[SpecMachine, SpecState], Optional[str]]] = None,
    budget: Optional[Budget] = None,
    mutation: Optional[str] = None,
) -> CheckResult:
    """Breadth-first search over all interleavings, checking ``invariant``
    at every reachable state and ``final`` at every fully halted state.

    Returns a :class:`CheckResult`; ``complete`` is False when the state
    or depth budget truncated the search (violations found in the explored
    prefix are still reported).
    """
    budget = budget or Budget()
    initial = machine.initial_state()
    # parent map: state -> (predecessor, transition) for trace rebuild.
    parents: Dict[SpecState, Tuple[Optional[SpecState], Optional[TraceStep]]] = {
        initial: (None, None)
    }
    depths: Dict[SpecState, int] = {initial: 0}
    frontier: List[SpecState] = [initial]
    violations: List[Violation] = []
    seen_violations: set = set()
    transitions = 0
    max_depth_seen = 0
    complete = True

    def check(state: SpecState) -> None:
        checks = [("invariant", invariant)]
        if state.all_halted:
            checks.append(("final", final))
        for kind, prop in checks:
            if prop is None:
                continue
            message = prop(machine, state)
            if message is None:
                continue
            key = (kind, message)
            if key in seen_violations:
                continue
            seen_violations.add(key)
            trace = _rebuild_trace(parents, state)
            violations.append(
                Violation(
                    kind=kind,
                    test=test_name,
                    message=message,
                    depth=depths[state],
                    schedule=tuple(step.core for step in trace),
                    trace=trace,
                    state=state.render(),
                )
            )

    check(initial)
    while frontier and len(violations) < budget.max_violations:
        next_frontier: List[SpecState] = []
        for state in frontier:
            if state.all_halted:
                continue
            depth = depths[state]
            if depth >= budget.max_depth:
                complete = False
                continue
            for step, new_state in successors(machine, state):
                transitions += 1
                if new_state in parents:
                    continue
                if len(parents) >= budget.max_states:
                    complete = False
                    continue
                parents[new_state] = (state, step)
                depths[new_state] = depth + 1
                max_depth_seen = max(max_depth_seen, depth + 1)
                check(new_state)
                if len(violations) >= budget.max_violations:
                    break
                next_frontier.append(new_state)
            if len(violations) >= budget.max_violations:
                break
        frontier = next_frontier
    return CheckResult(
        test=test_name,
        description=description,
        states=len(parents),
        transitions=transitions,
        max_depth_seen=max_depth_seen,
        complete=complete,
        violations=violations,
        mutation=mutation,
    )


def _rebuild_trace(
    parents: Dict[SpecState, Tuple[Optional[SpecState], Optional[TraceStep]]],
    state: SpecState,
) -> Tuple[TraceStep, ...]:
    steps: List[TraceStep] = []
    cursor: Optional[SpecState] = state
    while cursor is not None:
        predecessor, step = parents[cursor]
        if step is not None:
            steps.append(step)
        cursor = predecessor
    return tuple(reversed(steps))


# -- complete-schedule enumeration (for simulator replay) -----------------------


def enumerate_schedules(
    machine: SpecMachine,
    budget: Optional[Budget] = None,
    max_schedules: Optional[int] = None,
) -> List[Tuple[TraceStep, ...]]:
    """Depth-first enumeration of complete (all-cores-halted) schedules.

    A path that revisits a global state it already passed through is
    pruned at the revisit (stutter equivalence: any completion from the
    second visit already exists from the first), which makes spin loops
    enumerable.  ``max_schedules`` caps the result; the depth budget
    bounds each path.
    """
    budget = budget or Budget()
    schedules: List[Tuple[TraceStep, ...]] = []
    initial = machine.initial_state()

    # Iterative DFS; each stack entry is (state, on-path set snapshot id,
    # trace so far).  Paths share tuple prefixes, so memory stays modest.
    stack: List[Tuple[SpecState, Tuple[TraceStep, ...], frozenset]] = [
        (initial, (), frozenset([initial]))
    ]
    while stack:
        state, trace, on_path = stack.pop()
        if state.all_halted:
            schedules.append(trace)
            if max_schedules is not None and len(schedules) >= max_schedules:
                return schedules
            continue
        if len(trace) >= budget.max_depth:
            continue
        # Reversed so the lexicographically first branch pops first.
        for step, new_state in reversed(successors(machine, state)):
            if new_state in on_path:
                continue
            stack.append((new_state, trace + (step,), on_path | {new_state}))
    return schedules
