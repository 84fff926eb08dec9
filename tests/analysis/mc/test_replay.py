"""Cross-validation: the detailed simulator against the abstract spec.

The acceptance bar: for several litmus tests, *every* enumerated schedule
replays through the out-of-order simulator with registers, CSB window,
and memory equal to the spec after every abstract op.
"""

import pytest

from repro.analysis.mc import (
    get_test,
    replay_schedule,
    replay_test,
    watched_words,
)
from repro.analysis.mc.litmus import LINE_SIZE
from repro.common.errors import ConfigError

#: Tests whose complete schedule set is replayed end to end.
EXHAUSTIVE = [
    "combining-order",
    "window-split-local",
    "stale-line-flush",
    "conflict-clears",
    "flush-empty",
    "pid-isolation",
    "lock-handoff",
]

#: Contention tests with large schedule spaces: replay a capped sample.
SAMPLED = ["window-split-cross", "flush-flush-conflict", "mixed-lock-csb"]


class TestExhaustiveReplay:
    @pytest.mark.parametrize("name", EXHAUSTIVE)
    def test_every_schedule_matches_the_spec(self, name):
        report = replay_test(get_test(name))
        assert report.ok, [d.render() for d in report.divergences]
        assert report.schedules >= 1
        assert report.steps >= report.schedules


class TestSampledReplay:
    @pytest.mark.parametrize("name", SAMPLED)
    def test_sampled_schedules_match_the_spec(self, name):
        report = replay_test(get_test(name), max_schedules=10)
        assert report.ok, [d.render() for d in report.divergences]
        assert report.schedules == 10


class TestReplayMechanics:
    def test_nack_tests_are_rejected(self):
        with pytest.raises(ConfigError, match="not.*replayable"):
            replay_test(get_test("nack-retry"))

    def test_report_serializes(self):
        report = replay_test(get_test("flush-empty"))
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["test"] == "flush-empty"
        assert payload["divergences"] == []

    def test_watched_words_cover_whole_combining_lines(self):
        words = watched_words(get_test("combining-order"))
        assert len(words) == LINE_SIZE // 8
        assert words == sorted(words)

    def test_watched_words_include_lock_and_device(self):
        words = watched_words(get_test("mixed-lock-csb"))
        test = get_test("mixed-lock-csb")
        # Every non-combining address any op touches must be watched.
        for program in test.programs:
            for op in program.ops:
                addr = getattr(op, "addr", None)
                if addr is not None:
                    line = addr & ~(LINE_SIZE - 1)
                    assert addr in words or line in words

    def test_incomplete_schedule_is_rejected(self):
        test = get_test("combining-order")
        from repro.analysis.mc import enumerate_schedules

        [schedule] = enumerate_schedules(test.machine())
        with pytest.raises(ConfigError, match="before every core halted"):
            replay_schedule(test, schedule[:-1])
