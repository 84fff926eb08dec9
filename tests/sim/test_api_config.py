"""The unified-config API surface: overrides mappings and fallbacks.

``simulate``/``run_experiment`` take one configuration argument — a full
SystemConfig or a partial overrides mapping.  The pre-MemoryConfig call
shapes (program first, runner as second positional) were shimmed for one
release and are now rejected outright.
"""

import warnings

import pytest

from repro import MemoryConfig, SystemConfig, assemble, simulate
from repro.api import resolve_config, run_experiment
from repro.common.errors import ConfigError
from repro.common.serialize import apply_overrides, parse_field_assignments

KERNEL = "set 1, %o1\nhalt"


class TestResolveConfig:
    def test_none_is_defaults(self):
        assert resolve_config(None) == SystemConfig()

    def test_full_config_passes_through(self):
        config = SystemConfig(num_cores=2)
        assert resolve_config(config) is config

    def test_mapping_merges_over_defaults(self):
        config = resolve_config({"mem": {"enabled": True, "mshrs": 8}})
        assert config.mem.enabled
        assert config.mem.mshrs == 8
        # Untouched sections keep their defaults.
        assert config.bus == SystemConfig().bus

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"dcache": {"enabled": True}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"mem": {"ways": 4}})

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config(42)


class TestSimulateOverrides:
    def test_overrides_reach_the_machine(self):
        result = simulate({"mem": {"enabled": True}}, KERNEL)
        assert len(result.system.dcaches) == 1

    def test_overrides_equal_explicit_config(self):
        from dataclasses import replace

        explicit = simulate(
            replace(SystemConfig(), mem=MemoryConfig(enabled=True)), KERNEL
        )
        implied = simulate({"mem": {"enabled": True}}, KERNEL)
        assert implied.system.cycle == explicit.system.cycle

    def test_sampling_fallback_reports_reason(self):
        # Sampling + SMP is invalid; the overrides path degrades to a
        # detailed run and says why instead of raising.
        result = simulate(
            {"sampling": {"enabled": True}, "num_cores": 2}, KERNEL
        )
        assert result.sampling is None
        assert result.sampling_fallback is not None
        assert result.system.cycle > 0

    def test_no_fallback_on_clean_run(self):
        assert simulate(None, KERNEL).sampling_fallback is None

    def test_invalid_overrides_without_sampling_still_raise(self):
        with pytest.raises(ConfigError):
            simulate({"num_cores": 0}, KERNEL)


class TestRemovedShims:
    def test_program_first_is_rejected(self):
        with pytest.raises(ConfigError):
            simulate(KERNEL)

    def test_program_then_config_is_rejected(self):
        with pytest.raises(ConfigError):
            simulate(assemble(KERNEL), SystemConfig())

    def test_config_first_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate(SystemConfig(), KERNEL)

    def test_run_experiment_positional_runner_is_rejected(self):
        from repro.evaluation.runner import default_runner

        with pytest.raises(ConfigError):
            run_experiment("crossover", default_runner())


class TestRunExperimentConfig:
    def test_mem_overrides_change_sweep_results(self):
        # fig5a sweeps locked round trips; caching the lock changes the
        # numbers, which proves the overrides reached every job.
        baseline = run_experiment("fig5a")
        cached = run_experiment("fig5a", {"mem": {"enabled": True}})
        assert cached.columns == baseline.columns
        assert cached.rows != baseline.rows

    def test_unknown_override_fails_fast(self):
        with pytest.raises(ConfigError):
            run_experiment("fig5a", {"mem": {"bogus": 1}})

    def test_config_reaches_a_point_study(self):
        # crossover builds its own systems; a slower core clock against
        # the bus changes every latency it reads off them.
        baseline = run_experiment("crossover")
        slower = run_experiment("crossover", {"bus": {"cpu_ratio": 4}})
        assert slower.columns == baseline.columns
        assert slower.rows != baseline.rows

    def test_unknown_id_with_a_config_names_the_id(self):
        with pytest.raises(ConfigError, match="fig7x"):
            run_experiment("fig7x", {"bus": {"cpu_ratio": 4}})


class TestFieldAssignmentParsing:
    def test_coercion_by_field_type(self):
        fields = parse_field_assignments(
            MemoryConfig,
            ["mshrs=8", "enabled=yes", "write_policy=writethrough"],
            "--mem",
        )
        assert fields == {
            "mshrs": 8,
            "enabled": True,
            "write_policy": "writethrough",
        }

    def test_later_assignment_wins(self):
        fields = parse_field_assignments(
            MemoryConfig, ["mshrs=2", "mshrs=16"], "--mem"
        )
        assert fields == {"mshrs": 16}

    def test_unknown_key_and_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_field_assignments(MemoryConfig, ["ways=4"], "--mem")
        with pytest.raises(ConfigError):
            parse_field_assignments(MemoryConfig, ["mshrs=lots"], "--mem")
        with pytest.raises(ConfigError):
            parse_field_assignments(MemoryConfig, ["mshrs"], "--mem")


class TestApplyOverrides:
    def test_partial_nested_merge(self):
        base = SystemConfig()
        merged = apply_overrides(
            base, {"mem": {"enabled": True}, "num_cores": 2}
        )
        assert merged.mem.enabled
        assert merged.num_cores == 2
        assert merged.mem.mshrs == base.mem.mshrs

    def test_l1_submerge(self):
        merged = apply_overrides(
            SystemConfig(), {"memory": {"l1": {"hit_latency": 3}}}
        )
        assert merged.memory.l1.hit_latency == 3
        assert merged.memory.l2 == SystemConfig().memory.l2

    def test_mem_section_round_trips_serialization(self):
        from repro.common.serialize import config_from_dict, config_to_dict

        config = apply_overrides(
            SystemConfig(), {"mem": {"enabled": True, "mshrs": 8}}
        )
        assert config_from_dict(config_to_dict(config)) == config
