"""Tier selection plumbing: CLI flags, runner rewrite, cache keying.

``csb-figures --tier sampled`` (or any ``--sample KEY=VALUE`` override)
must thread a :class:`~repro.common.config.SamplingConfig` into every
sweep job, land sampled results in cache entries disjoint from detailed
ones, and leave ineligible jobs (SMP, preemptive quanta, faults) running
fully detailed.  With sampling off, nothing anywhere may change — the
default tier stays byte-identical to the pre-tiered engine.
"""

from __future__ import annotations

import os

import pytest

from repro.common.config import SamplingConfig
from repro.evaluation.cli import _parser, _sampling_from_args, main
from repro.evaluation.experiments import experiment_ids, ignores_runner
from repro.evaluation.runner import ResultCache, SimJob, SweepRunner, job_key
from repro.workloads.random_programs import (
    MARK_END,
    MARK_START,
    generate_program,
)

from tests.conftest import make_config

SAMPLING = SamplingConfig(
    enabled=True, ff_instructions=64, warmup_cycles=48, window_cycles=96
)


def _span_job(seed=0, **config_kwargs):
    return SimJob(
        config=make_config(**config_kwargs),
        kernel=generate_program(seed),
        measurement="span",
        args=(MARK_START, MARK_END),
        name=f"rand{seed}",
    )


class TestCliFlags:
    def test_default_tier_is_detailed(self):
        args = _parser().parse_args(["fig3a"])
        assert args.tier == "detailed"
        assert _sampling_from_args(args) is None

    def test_tier_sampled_uses_defaults(self):
        args = _parser().parse_args(["fig3a", "--tier", "sampled"])
        sampling = _sampling_from_args(args)
        assert sampling == SamplingConfig(enabled=True)

    def test_sample_overrides_imply_sampled(self):
        args = _parser().parse_args(
            ["fig3a", "--sample", "window_cycles=800", "--sample",
             "confidence=0.99"]
        )
        sampling = _sampling_from_args(args)
        assert sampling.enabled
        assert sampling.window_cycles == 800
        assert sampling.confidence == 0.99
        assert sampling.ff_instructions == SamplingConfig().ff_instructions

    @pytest.mark.parametrize(
        "flag",
        ["bogus_key=1", "window_cycles", "window_cycles=abc",
         "confidence=0.5"],
    )
    def test_bad_sample_flags_exit(self, flag):
        args = _parser().parse_args(["fig3a", "--sample", flag])
        with pytest.raises(SystemExit):
            _sampling_from_args(args)


class TestRunnerRewrite:
    def test_sampled_jobs_get_disjoint_cache_keys(self):
        job = _span_job()
        rewritten = SweepRunner(sampling=SAMPLING)._with_sampling(job)
        assert rewritten.config.sampling == SAMPLING
        assert job_key(rewritten) != job_key(job)

    def test_ineligible_jobs_stay_detailed(self):
        smp = _span_job(num_cores=2)
        rewritten = SweepRunner(sampling=SAMPLING)._with_sampling(smp)
        assert rewritten is smp

    def test_sampled_sweep_runs_and_caches(self, tmp_path):
        jobs = [_span_job(seed) for seed in (0, 1)]
        cache = ResultCache(str(tmp_path))
        runner = SweepRunner(jobs=1, cache=cache, sampling=SAMPLING)
        first = runner.run(jobs)
        assert runner.simulated == len(jobs)
        warm = SweepRunner(jobs=1, cache=cache, sampling=SAMPLING)
        assert warm.run(jobs) == first
        assert warm.simulated == 0  # resolved from the sampled cache slice
        # A detailed runner sharing the cache must not see sampled entries.
        detailed = SweepRunner(jobs=1, cache=cache)
        detailed_results = detailed.run(jobs)
        assert detailed.simulated == len(jobs)
        # Spans agree within sampling error but are not byte-identical by
        # construction here (the sampled span is reconstructed): all this
        # test pins is that the two tiers keep separate cache entries.
        assert len(detailed_results) == len(first)

    def test_disabled_sampling_is_identity(self):
        job = _span_job()
        runner = SweepRunner(sampling=None)
        assert runner._with_sampling(job) is job
        baseline = SweepRunner(jobs=1).run([job])
        assert SweepRunner(jobs=1, sampling=None).run([job]) == baseline


class TestStudiesOutsideTheRunner:
    """Studies that run their own simulations never see the runner's tier
    or overrides; the CLI says so instead of staying silent."""

    def test_the_registry_marks_them(self):
        assert [e for e in experiment_ids() if ignores_runner(e)] == [
            "blockstore",
            "crossover",
            "fault-sweep",
            "loaded-bus",
            "loaded-bus-misses",
            "pingpong",
            "smp-contention",
            "sync-mechanisms",
        ]

    def test_sampled_tier_is_noted(self, capsys):
        assert main(["smp-contention", "--tier", "sampled", "--no-cache"]) == 0
        err = capsys.readouterr().err
        notes = [line for line in err.splitlines() if line.startswith("note:")]
        assert notes == [
            "note: smp-contention runs outside the sweep runner and "
            "ignores --tier sampled"
        ]
        assert "[0 simulated, 0 cached, 1 outside the runner," in err

    def test_one_note_per_table_naming_each_flag(self, capsys):
        argv = ["sync-mechanisms", "crossover", "fig3a", "--no-cache"]
        argv += ["--sample", "window_cycles=800", "--mem", "enabled=false"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        notes = [line for line in err.splitlines() if line.startswith("note:")]
        assert notes == [
            f"note: {study} runs outside the sweep runner and ignores "
            "--tier sampled and --mem"
            for study in ("sync-mechanisms", "crossover")
        ]
        assert ", 2 outside the runner," in err

    def test_quiet_silences_the_note(self, capsys):
        argv = ["sync-mechanisms", "--tier", "sampled", "--no-cache", "--quiet"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_flagged_warm_run_reads_the_one_table_entry(self, tmp_path, capsys):
        # Such a study's table is the same under every flag, so a warm run
        # with a flag it ignores is served from the entry a plain run wrote.
        cache_dir = str(tmp_path / "cache")
        assert main(["crossover", "--cache-dir", cache_dir, "--quiet"]) == 0
        argv = ["crossover", "--cache-dir", cache_dir, "--mem", "mshrs=8"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "[0 simulated, 1 cached" in err
        entries = [name for name in os.listdir(cache_dir) if name.endswith(".json")]
        assert len(entries) == 1

    def test_no_note_without_an_ignored_flag(self, capsys):
        assert main(["sync-mechanisms", "--no-cache"]) == 0
        err = capsys.readouterr().err
        assert "note:" not in err
        assert ", 1 outside the runner," in err
