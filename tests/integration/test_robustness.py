"""Error paths and determinism: the simulator fails loudly and repeats
exactly."""

import pytest

from repro import System, assemble
from repro.common.errors import DeadlockError, MemoryError_, SimulationError
from repro.isa.program import Program, ProgramError
from repro.isa.instructions import NopInstruction
from repro.memory.layout import IO_UNCACHED_BASE
from tests.conftest import make_config


class TestErrorPaths:
    def test_unmapped_access_fails_at_dispatch(self):
        system = System(make_config())
        system.add_process(assemble("ldx [0x70000000], %o1\nhalt"))
        with pytest.raises(MemoryError_):
            system.run()

    def test_fetch_past_end_is_impossible_by_construction(self):
        # finalize() requires a trailing halt, so a program can never run
        # off its end.
        program = Program()
        program.add(NopInstruction())
        with pytest.raises(ProgramError):
            program.finalize()

    def test_run_without_processes_finishes_immediately(self):
        system = System(make_config())
        assert system.finished
        system.run()
        assert system.cycle == 0

    def test_spin_forever_raises_deadlock_with_cycle(self):
        system = System(make_config())
        system.add_process(assemble("x: ba x\nhalt"))
        with pytest.raises(DeadlockError) as exc:
            system.run(max_cycles=5_000)
        assert exc.value.cycle is not None
        assert exc.value.snapshot["cores"]
        report = exc.value.report().splitlines()
        assert any(line.startswith("core 0 ") for line in report)

    def test_loaded_bus_non_convergence_raises_the_driver_error(self, monkeypatch):
        # A 9-bus-cycle refill injected every bus cycle outranks the store
        # stream forever.  The study's run is bounded by the clock driver,
        # whose DeadlockError (a ReproError) fires at max_cycles, lowered
        # here below the core's 50,000-cycle no-progress watchdog.
        from repro.evaluation import loaded_bus

        class Capped(System):
            def advance(self, until=None, feed=None, max_cycles=20_000):
                return super().advance(until, feed, max_cycles)

        monkeypatch.setattr(loaded_bus, "System", Capped)
        with pytest.raises(DeadlockError) as exc:
            loaded_bus.injected_bandwidth_point("none", 256, refill_period=1)
        assert str(exc.value) == "exceeded max_cycles=20000 (cycle 20000)"

    def test_sampled_drain_deadlock_carries_a_snapshot(self):
        # The first detailed window ends at cycle 144 with the uncached
        # buffer full behind a bus 6x slower than the core; the hand-off
        # drain cannot empty it before max_cycles.
        from repro.common.config import SamplingConfig
        from repro.sim.sampling import run_sampled
        from repro.workloads.storebw import store_kernel_uncached

        sampling = SamplingConfig(
            enabled=True, ff_instructions=64, warmup_cycles=48, window_cycles=96
        )
        system = System(make_config(sampling=sampling))
        system.add_process(assemble(store_kernel_uncached(256)))
        with pytest.raises(DeadlockError) as exc:
            run_sampled(system, max_cycles=150)
        assert str(exc.value) == (
            "pipeline drain exceeded max_cycles=150 (cycle 150)"
        )
        assert exc.value.snapshot["cycle"] == 149
        assert exc.value.snapshot["cores"][0]["uncached_buffer"] > 0
        assert exc.value.snapshot["cores"]
        report = exc.value.report().splitlines()
        assert any(line.startswith("core 0 ") for line in report)

    def test_cluster_deadlock_snapshots_the_unfinished_node(self):
        from repro.sim.cluster import Cluster

        done, spinning = System(make_config()), System(make_config())
        done.add_process(assemble("halt"))
        spinning.add_process(assemble("x: ba x\nhalt"))
        cluster = Cluster([done, spinning])
        with pytest.raises(DeadlockError) as exc:
            cluster.run(max_cycles=2_000)
        assert exc.value.cycle == 2_000
        (core,) = exc.value.snapshot["cores"]
        assert core["pid"] == spinning.core.context.pid
        assert core["rob"] > 0
        report = exc.value.report().splitlines()
        assert any(line.startswith("core 0 ") for line in report)

    def test_unaligned_uncached_store_rejected(self):
        system = System(make_config())
        system.add_process(
            assemble(f"set {IO_UNCACHED_BASE + 4}, %o1\nstx %l0, [%o1]\nhalt")
        )
        with pytest.raises(SimulationError):
            system.run()

    def test_interrupt_on_halted_core_is_harmless(self):
        system = System(make_config())
        system.add_process(assemble("halt"))
        system.run()
        system.core.interrupt()
        system.run_cycles(5)  # no crash, nothing to squash


class TestDeterminism:
    def test_identical_runs_produce_identical_stats(self):
        def run():
            system = System(make_config(combine_block=64))
            from repro.workloads import store_kernel_csb

            system.add_process(assemble(store_kernel_csb(512, 64)))
            system.run()
            return (
                system.cycle,
                system.stats.as_dict(),
                [
                    (r.start_cycle, r.end_cycle, r.address, r.size, r.kind)
                    for r in system.stats.transactions
                ],
            )

        assert run() == run()

    def test_multiprocess_runs_deterministic(self):
        from repro.workloads.contention import contending_csb_kernel
        from repro.memory.layout import IO_COMBINING_BASE

        def run():
            system = System(make_config(quantum=120, switch_penalty=20))
            system.add_process(
                assemble(contending_csb_kernel(15, IO_COMBINING_BASE))
            )
            system.add_process(
                assemble(contending_csb_kernel(15, IO_COMBINING_BASE + 64))
            )
            system.run(max_cycles=5_000_000)
            return system.cycle, system.stats.as_dict()

        assert run() == run()


class TestSlowRegistrySweep:
    @pytest.mark.slow
    def test_every_registered_experiment_produces_a_table(self):
        from repro.evaluation.experiments import experiment_ids, run_experiment

        for experiment_id in experiment_ids():
            table = run_experiment(experiment_id)
            assert table.rows, experiment_id
