"""run_streamed and retire_halted: the streaming-replay contracts."""

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import DeadlockError
from repro.isa.assembler import assemble
from repro.sim.system import System

KERNEL = "set 1, %o1\nset 2, %o2\nhalt"


class TestRunStreamed:
    def test_feed_is_called_until_exhausted(self):
        system = System(SystemConfig())
        calls = []

        def feed(sys):
            calls.append(sys.cycle)
            if len(calls) > 3:
                return False
            sys.add_process(assemble(KERNEL), name=f"w{len(calls)}")
            return True

        system.run_streamed(feed)
        assert len(calls) == 4  # 3 windows + the exhausted call
        assert calls[0] == 0  # fed before the first cycle
        assert calls == sorted(calls)

    def test_empty_stream_runs_zero_cycles(self):
        system = System(SystemConfig())
        system.run_streamed(lambda sys: False)
        assert system.cycle == 0

    def test_feed_may_fast_forward_the_clock(self):
        system = System(SystemConfig())
        state = {"fed": False}

        def feed(sys):
            if state["fed"]:
                return False
            state["fed"] = True
            sys.cycle = 10_000  # idle-skip over a trace gap
            sys.add_process(assemble(KERNEL))
            return True

        system.run_streamed(feed)
        assert system.cycle > 10_000

    def test_lying_feed_raises(self):
        system = System(SystemConfig())
        with pytest.raises(DeadlockError):
            system.run_streamed(lambda sys: True)  # claims work, adds none

    def test_max_cycles_bounds_the_whole_run(self):
        system = System(SystemConfig())

        def feed(sys):
            sys.add_process(assemble(KERNEL))
            return True  # endless stream

        with pytest.raises(DeadlockError) as exc:
            system.run_streamed(feed, max_cycles=500)
        assert exc.value.cycle == 500
        assert exc.value.snapshot["cores"]
        report = exc.value.report().splitlines()
        assert any(line.startswith("core 0 ") for line in report)


class TestRetireHalted:
    def test_halted_processes_are_forgotten(self):
        system = System(SystemConfig())

        def feed(sys):
            if len(sys.scheduler.processes) >= 3:
                return False
            sys.add_process(assemble(KERNEL))
            return True

        system.run_streamed(feed)
        assert len(system.scheduler.processes) == 3
        retired = system.scheduler.retire_halted()
        assert retired == 3
        assert system.scheduler.processes == []

    def test_queue_stays_bounded_across_windows(self):
        system = System(SystemConfig(num_cores=2))
        windows = {"n": 0}

        def feed(sys):
            sys.scheduler.retire_halted()
            for queue in sys.scheduler.queues:
                assert len(queue._processes) == 0
            if windows["n"] == 5:
                return False
            windows["n"] += 1
            for core in range(2):
                sys.add_process(assemble(KERNEL), core_id=core)
            return True

        system.run_streamed(feed)
        assert windows["n"] == 5

    def test_retire_is_a_noop_with_live_processes(self):
        system = System(SystemConfig())
        system.add_process(assemble(KERNEL))
        assert system.scheduler.retire_halted() == 0
        system.run()
        assert system.scheduler.retire_halted() == 1
