"""Golden dicts of the model checker's result records.

``csb-figures mc --json`` serializes these records, so their ``to_dict``
shapes are tool contract, like the Finding golden.  The records are built
by hand, not by an exploration, so neither set iteration order nor a
change to the search can make the expected documents move.  Each check
compares both the dict and its sorted-key JSON text, which also pins
value types (``1`` versus ``1.0``).
"""

import json

from repro.analysis.mc.explore import CheckResult, TraceStep, Violation
from repro.analysis.mc.replay import Divergence, ReplayReport


def violation():
    return Violation(
        kind="final",
        test="window-split-local",
        message="torn line: 0x1000 holds 1 of 2 stores",
        depth=2,
        schedule=(0, 1),
        trace=(
            TraceStep(core=0, ops=(0, 1, 2), label="c0: comb 0x1000 <- 1"),
            TraceStep(core=1, ops=(4,), label="c1: flush 0x1000 -> ok"),
        ),
        state={
            "cores": [{"pc": 5, "halted": True, "regs": {"l0": 1}}],
            "csb": {"line": None, "owner": None, "words": {}, "counter": 0},
            "mem": {"0x1000": 1},
            "nacks": 0,
        },
    )


VIOLATION = {
    "kind": "final",
    "test": "window-split-local",
    "message": "torn line: 0x1000 holds 1 of 2 stores",
    "depth": 2,
    "schedule": [0, 1],
    "trace": [
        {"core": 0, "ops": [0, 1, 2], "label": "c0: comb 0x1000 <- 1"},
        {"core": 1, "ops": [4], "label": "c1: flush 0x1000 -> ok"},
    ],
    "state": {
        "cores": [{"pc": 5, "halted": True, "regs": {"l0": 1}}],
        "csb": {"line": None, "owner": None, "words": {}, "counter": 0},
        "mem": {"0x1000": 1},
        "nacks": 0,
    },
}

DIVERGENCE = {
    "schedule_index": 3,
    "step_index": 7,
    "core": 1,
    "op_index": 2,
    "what": "mem 0x1008",
    "expected": "0x2",
    "actual": "0x0",
}


def divergence():
    return Divergence(
        schedule_index=3,
        step_index=7,
        core=1,
        op_index=2,
        what="mem 0x1008",
        expected="0x2",
        actual="0x0",
    )


def assert_golden(document, golden):
    assert document == golden
    assert json.dumps(document, sort_keys=True) == json.dumps(
        golden, sort_keys=True
    )


class TestExploreRecords:
    def test_trace_step(self):
        step = TraceStep(core=2, ops=(9,), label="c2: halt")
        assert_golden(step.to_dict(), {"core": 2, "ops": [9], "label": "c2: halt"})

    def test_violation(self):
        assert_golden(violation().to_dict(), VIOLATION)

    def test_check_result_with_a_violation(self):
        result = CheckResult(
            test="window-split-local",
            description="one core splits a combining window",
            states=41,
            transitions=57,
            max_depth_seen=9,
            complete=True,
            violations=[violation()],
            mutation="skip-expected-check",
        )
        assert_golden(
            result.to_dict(),
            {
                "test": "window-split-local",
                "description": "one core splits a combining window",
                "states": 41,
                "transitions": 57,
                "max_depth_seen": 9,
                "complete": True,
                "mutation": "skip-expected-check",
                "ok": False,
                "violations": [VIOLATION],
            },
        )

    def test_clean_check_result(self):
        result = CheckResult(
            test="combining-order",
            description="d",
            states=1,
            transitions=0,
            max_depth_seen=0,
            complete=False,
            violations=[],
        )
        assert_golden(
            result.to_dict(),
            {
                "test": "combining-order",
                "description": "d",
                "states": 1,
                "transitions": 0,
                "max_depth_seen": 0,
                "complete": False,
                "mutation": None,
                "ok": True,
                "violations": [],
            },
        )


class TestReplayRecords:
    def test_divergence(self):
        assert_golden(divergence().to_dict(), DIVERGENCE)

    def test_replay_report_with_a_divergence(self):
        report = ReplayReport(
            test="flush-empty", schedules=4, steps=18,
            divergences=[divergence()],
        )
        assert_golden(
            report.to_dict(),
            {
                "test": "flush-empty",
                "schedules": 4,
                "steps": 18,
                "ok": False,
                "divergences": [DIVERGENCE],
            },
        )

    def test_clean_replay_report(self):
        report = ReplayReport(test="flush-empty", schedules=1, steps=5)
        assert_golden(
            report.to_dict(),
            {
                "test": "flush-empty",
                "schedules": 1,
                "steps": 5,
                "ok": True,
                "divergences": [],
            },
        )
