"""Tiered-execution differential harness (fast-forward vs detailed).

The fast-forward interpreter executes the same :mod:`repro.isa.semantics`
helpers against the same backing store, register file, and CSB as the
detailed out-of-order core, so a fast-forwarded run must leave *exactly*
the architectural state a detailed-only run does.  This suite pins that
property over every shipped workload in the lint registry and the
seeded random-program corpus:

* **mixed** — drain early, fast-forward a prefix, finish detailed;
* **sampled** — the full :func:`repro.sim.sampling.run_sampled`
  controller with windows small enough that even short kernels
  alternate tiers several times;
* **polling prefix** — the device-polling kernels never halt standalone,
  so two runs that mix the tiers differently are compared at the same
  instruction count instead.

Architectural state is registers, pc, halted flag, retired-instruction
count, mark *labels* (mark cycles are timing), and the whole backing
store.  Timing observables (cycles, counters) are expected to differ.
"""

from __future__ import annotations

import pytest

from repro.common.config import SamplingConfig, SystemConfig
from repro.common.errors import ConfigError, SimulationError
from repro.common.serialize import config_from_dict, config_to_dict
from repro.faults.config import FaultConfig
from repro.isa.assembler import assemble
from repro.sim.fastforward import FastForwarder, decode_program
from repro.sim.sampling import _drain, run_sampled
from repro.sim.system import System
from repro.workloads.random_programs import generate_program

from tests.conftest import make_config, registry_targets

MAX_CYCLES = 2_000_000

#: Kernels that poll a device register and therefore never halt on a
#: bare (device-free) system; they get the bounded-prefix comparison.
POLLING_PREFIXES = ("ping-", "pong-", "dma-send-")

_TARGETS = registry_targets()
HALTING = sorted(
    name for name in _TARGETS if not name.startswith(POLLING_PREFIXES)
)
POLLING = sorted(name for name in _TARGETS if name.startswith(POLLING_PREFIXES))

RANDOM_SEEDS = tuple(range(50))

#: Windows small enough that even few-thousand-cycle kernels alternate
#: fast-forward and detailed phases several times.
TINY_SAMPLING = SamplingConfig(
    enabled=True, ff_instructions=64, warmup_cycles=48, window_cycles=96
)


def _config_for(name, sampling=None):
    kwargs = {}
    if sampling is not None:
        kwargs["sampling"] = sampling
    return make_config(line_size=_TARGETS[name].context.line_size, **kwargs)


def _arch_state(system):
    """Everything the functional tier must preserve exactly."""
    contexts = system.scheduler.processes
    return (
        [dict(ctx.registers.snapshot()) for ctx in contexts],
        [ctx.pc for ctx in contexts],
        [ctx.halted for ctx in contexts],
        [ctx.retired_instructions for ctx in contexts],
        [sorted(ctx.marks) for ctx in contexts],
        system.backing.snapshot(),
    )


def _fresh(source, config):
    system = System(config)
    system.add_process(assemble(source, name="diff"))
    return system


def _detailed(source, config):
    system = _fresh(source, config)
    system.run(max_cycles=MAX_CYCLES)
    return system


def _to_handoff(system):
    """Step past reset and drain to the first hand-off point."""
    system.step()
    _drain(system, MAX_CYCLES)
    return FastForwarder(system)


def _mixed(source, config, ff_budget=256):
    """Fast-forward an early prefix, then run detailed to completion."""
    system = _fresh(source, config)
    ff = _to_handoff(system)
    ff.fast_forward(ff_budget)
    system.run(max_cycles=MAX_CYCLES)
    return system


def _sampled(source, config):
    system = _fresh(source, config)
    run_sampled(system, max_cycles=MAX_CYCLES)
    return system


# -- architectural identity: every shipped halting workload --------------------


@pytest.mark.parametrize("name", HALTING)
def test_registry_workload_tier_identity(name):
    source = _TARGETS[name].source
    golden = _arch_state(_detailed(source, _config_for(name)))
    assert _arch_state(_mixed(source, _config_for(name))) == golden
    sampled = _sampled(source, _config_for(name, sampling=TINY_SAMPLING))
    assert _arch_state(sampled) == golden
    assert sampled.sampling_report is not None


# -- architectural identity: the random-program corpus -------------------------


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_program_tier_identity(seed):
    source = generate_program(seed)
    golden = _arch_state(_detailed(source, make_config()))
    assert _arch_state(_mixed(source, make_config())) == golden
    sampled = _sampled(source, make_config(sampling=TINY_SAMPLING))
    assert _arch_state(sampled) == golden


# -- bounded-prefix identity: the device-polling kernels -----------------------


@pytest.mark.parametrize("name", POLLING)
def test_polling_workload_prefix_identity(name):
    """Two tier mixes must agree at the same instruction count.

    These kernels spin on a device register (all zeros without the
    device), so instead of running to a halt, run A fast-forwards
    straight to instruction N while run B takes a detailed detour first
    and fast-forwards the rest of the way to the same N.
    """
    source = _TARGETS[name].source
    config = _config_for(name)

    a = _fresh(source, config)
    ff_a = _to_handoff(a)
    ff_a.fast_forward(2000)
    total = a.scheduler.processes[0].retired_instructions

    b = _fresh(source, config)
    ff_b = _to_handoff(b)
    b.advance(until=b.cycle + 300)
    _drain(b, MAX_CYCLES)
    retired = b.scheduler.processes[0].retired_instructions
    assert retired < total  # the detour must not overshoot the target
    ff_b.fast_forward(total - retired)

    assert not a.scheduler.processes[0].halted
    assert _arch_state(a) == _arch_state(b)


# -- fast-forward-0: the tiered engine must be able to vanish ------------------


def test_ff0_sampled_run_is_byte_identical_to_detailed():
    """A sampled run whose windows cover the whole program never reaches
    a fast-forward phase — and must then be byte-identical to a detailed
    run in *timing* too: cycles, every counter, every mark cycle."""
    from repro.workloads import store_kernel_csb

    source = store_kernel_csb(4096, 64)
    detailed = _detailed(source, make_config())
    huge_windows = SamplingConfig(
        enabled=True, ff_instructions=1, warmup_cycles=0,
        window_cycles=1_000_000,
    )
    sampled = _sampled(source, make_config(sampling=huge_windows))
    assert sampled.sampling_report.ff_instructions == 0
    assert sampled.cycle == detailed.cycle
    assert sampled.stats.as_dict() == detailed.stats.as_dict()
    assert dict(sampled.stats.marks) == dict(detailed.stats.marks)
    assert _arch_state(sampled) == _arch_state(detailed)


# -- hand-off mechanics --------------------------------------------------------


class TestHandoff:
    def test_zero_budget_rejected(self):
        system = _fresh(generate_program(0), make_config())
        ff = _to_handoff(system)
        with pytest.raises(ConfigError):
            ff.fast_forward(0)

    def test_handoff_requires_drained_pipeline(self):
        system = _fresh(generate_program(0), make_config())
        ff = FastForwarder(system)
        while system.core.drained:  # step until work is in flight
            system.step()
        with pytest.raises(SimulationError):
            ff.fast_forward(100)

    def test_nothing_installed_is_a_noop(self):
        system = System(make_config())
        system.add_process(assemble(generate_program(0), name="diff"))
        ff = FastForwarder(system)
        assert ff.fast_forward(100) == 0  # context not yet installed

    def test_halted_context_is_a_noop(self):
        system = _detailed(generate_program(0), make_config())
        ff = FastForwarder(system)
        assert ff.fast_forward(100) == 0

    def test_budget_is_respected(self):
        system = _fresh(generate_program(0), make_config())
        ff = _to_handoff(system)
        before = system.scheduler.processes[0].retired_instructions
        assert ff.fast_forward(7) == 7
        assert system.scheduler.processes[0].retired_instructions == before + 7

    def test_decode_cache_hits_by_content(self):
        program = assemble(generate_program(3), name="a")
        same = assemble(generate_program(3), name="b")
        assert decode_program(program, 64) is decode_program(same, 64)
        assert decode_program(program, 64) is not decode_program(program, 128)


# -- eligibility gates ---------------------------------------------------------


class TestEligibility:
    def test_smp_rejected(self):
        system = System(make_config(num_cores=2))
        with pytest.raises(ConfigError):
            FastForwarder(system)

    def test_quantum_rejected(self):
        system = System(make_config(quantum=500))
        with pytest.raises(ConfigError):
            FastForwarder(system)

    def test_faults_rejected(self):
        system = System(make_config(faults=FaultConfig(bus_nack_rate=0.1)))
        with pytest.raises(ConfigError):
            FastForwarder(system)

    def test_devices_rejected(self):
        from repro.devices.sink import BurstSink
        from repro.memory.layout import IO_COMBINING_BASE, PageAttr, Region

        system = _fresh(generate_program(0), make_config())
        region = Region(IO_COMBINING_BASE, 8192, PageAttr.UNCACHED_COMBINING, "sink")
        system.attach_device(BurstSink(region))
        ff = FastForwarder(system)
        with pytest.raises(ConfigError):
            ff.fast_forward(100)

    def test_run_sampled_requires_enabled_config(self):
        system = _fresh(generate_program(0), make_config())
        with pytest.raises(ConfigError):
            run_sampled(system)

    def test_sampled_config_rejects_smp(self):
        with pytest.raises(ConfigError):
            make_config(num_cores=2, sampling=SamplingConfig(enabled=True))

    def test_sampled_config_rejects_faults(self):
        with pytest.raises(ConfigError):
            make_config(
                faults=FaultConfig(bus_nack_rate=0.1),
                sampling=SamplingConfig(enabled=True),
            )


# -- sampling config plumbing --------------------------------------------------


class TestSamplingConfig:
    def test_serialization_round_trip(self):
        config = make_config(sampling=TINY_SAMPLING)
        assert config_from_dict(config_to_dict(config)) == config

    def test_default_is_disabled_and_round_trips(self):
        config = SystemConfig()
        assert not config.sampling.enabled
        assert config_from_dict(config_to_dict(config)) == config

    def test_bad_confidence_rejected(self):
        with pytest.raises(ConfigError):
            SamplingConfig(confidence=0.5)

    def test_sampling_changes_cache_key(self):
        from repro.evaluation.runner import SimJob, job_key

        detailed = SimJob(
            config=make_config(), kernel="halt", measurement="store_bandwidth"
        )
        sampled = SimJob(
            config=make_config(sampling=TINY_SAMPLING),
            kernel="halt",
            measurement="store_bandwidth",
        )
        assert job_key(detailed) != job_key(sampled)
