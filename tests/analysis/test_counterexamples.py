"""Promoted counterexample workloads: the permanent regression set."""

import json

import pytest

from repro.analysis.mc import Budget, get_test
from repro.analysis.mc.promote import (
    complete_schedule,
    promote_violation,
    realize_schedule,
    write_counterexamples,
)
from repro.common.errors import ConfigError
from repro.workloads.counterexamples import (
    COUNTEREXAMPLES,
    CounterexampleWorkload,
    get_counterexample,
)


class TestPromotedSet:
    def test_exactly_the_two_promoted_interleavings(self):
        assert [w.name for w in COUNTEREXAMPLES] == [
            "cx-window-split-cross",
            "cx-flush-flush-conflict",
        ]

    @pytest.mark.parametrize("workload", COUNTEREXAMPLES, ids=lambda w: w.name)
    def test_schedule_is_complete_on_the_correct_spec(self, workload):
        trace, state = workload.trace()
        assert state.all_halted
        assert len(trace) == len(workload.schedule)

    @pytest.mark.parametrize("workload", COUNTEREXAMPLES, ids=lambda w: w.name)
    def test_replays_divergence_free_through_the_simulator(self, workload):
        report = workload.replay()
        assert report.ok, [d.render() for d in report.divergences]
        assert report.steps > 0

    @pytest.mark.parametrize("workload", COUNTEREXAMPLES, ids=lambda w: w.name)
    def test_still_violates_under_its_mutation(self, workload):
        message = workload.check_still_violates()
        assert message.startswith(("invariant:", "final:"))

    @pytest.mark.parametrize("workload", COUNTEREXAMPLES, ids=lambda w: w.name)
    def test_round_trips_through_json(self, workload):
        clone = CounterexampleWorkload.from_dict(
            json.loads(json.dumps(workload.to_dict()))
        )
        assert clone == workload

    def test_flush_flush_schedule_exercises_real_contention(self):
        workload = get_counterexample("cx-flush-flush-conflict")
        trace, _ = workload.trace()
        conflicts = sum("conflict" in step.label for step in trace)
        assert conflicts >= 2

    def test_sources_compile_to_assembly_per_core(self):
        from repro.isa.assembler import assemble

        for workload in COUNTEREXAMPLES:
            sources = workload.sources()
            assert len(sources) == len(workload.test().programs)
            for name, source in sources:
                assert name.startswith(workload.name)
                assemble(source, name=name)  # must not raise

    def test_unknown_name_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown counterexample"):
            get_counterexample("cx-nope")


class TestPromotionPath:
    def test_promote_completes_the_violating_prefix(self):
        test = get_test("window-split-cross")
        result = test.run(
            Budget(max_states=50_000, max_depth=200),
            mutation="skip-expected-check",
        )
        workload = promote_violation(
            test, result.violations[0], mutation="skip-expected-check"
        )
        assert workload.name == "cx-window-split-cross"
        assert workload.found_with == "skip-expected-check"
        trace, state = realize_schedule(test.machine(), workload.schedule)
        assert state.all_halted
        # The violating prefix survives completion verbatim.
        prefix = result.violations[0].schedule
        assert tuple(workload.schedule[: len(prefix)]) == tuple(prefix)

    def test_complete_schedule_rejects_livelock(self):
        # An empty prefix of a spinning machine completes fine (the
        # round-robin completion makes progress), so instead check the
        # bound triggers on a machine that cannot halt: core 0 spinning on
        # a lock core 1 never releases because it halted holding it.
        from repro.analysis.mc.spec import (
            BranchNZ,
            Halt,
            LockSwap,
            SpecMachine,
            spec_program,
        )
        from repro.memory.layout import DRAM_BASE

        lock = DRAM_BASE + 0x9000
        machine = SpecMachine(
            [
                spec_program(
                    ".SPIN",
                    LockSwap(lock, "l0"),
                    BranchNZ("l0", ".SPIN"),
                    Halt(),
                ),
                spec_program(LockSwap(lock, "l1"), Halt()),
            ]
        )
        with pytest.raises(ConfigError, match="did not complete"):
            complete_schedule(machine, [1, 1, 0])

    def test_write_counterexamples_emits_sorted_json(self, tmp_path):
        paths = write_counterexamples(list(COUNTEREXAMPLES), str(tmp_path))
        assert len(paths) == 2
        for path, workload in zip(paths, COUNTEREXAMPLES):
            payload = json.loads(open(path).read())
            assert payload == workload.to_dict()
            keys = list(payload)
            assert keys == sorted(keys)
