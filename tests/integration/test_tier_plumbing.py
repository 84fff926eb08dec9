"""Tier selection plumbing: CLI flags, runner rewrite, cache keying.

``csb-figures --tier sampled`` (or any ``--sample KEY=VALUE`` override)
must thread a :class:`~repro.common.config.SamplingConfig` into every
sweep job, land sampled results in cache entries disjoint from detailed
ones, and leave ineligible jobs (SMP, preemptive quanta, faults, point
jobs) running fully detailed.  With sampling off, nothing anywhere may
change — the default tier stays byte-identical to the pre-tiered engine.
"""

from __future__ import annotations

import pytest

from repro.common.config import SamplingConfig
from repro.evaluation.cli import _parser, _sampling_from_args, main
from repro.evaluation.experiments import run_experiment
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


class TestPointJobsUnderTheSampledTier:
    """A point job builds its own systems, so the sampled tier cannot
    reach them: each point runs detailed and is named as a fallback."""

    def test_each_point_is_noted(self, capsys):
        assert main(["smp-contention", "--tier", "sampled", "--no-cache"]) == 0
        err = capsys.readouterr().err
        notes = [line for line in err.splitlines() if line.startswith("note:")]
        assert notes == [
            f"note: smp-contention-{mechanism}-{cores} is ineligible for "
            "sampling and runs at the detailed tier (a point job builds its "
            "own systems)"
            for cores in (2, 4, 8)
            for mechanism in ("lock", "csb")
        ]
        assert "[6 simulated, 0 cached," in err

    def test_sampled_point_table_is_the_detailed_table(self):
        runner = SweepRunner(sampling=SAMPLING, log=lambda message: None)
        sampled = run_experiment("blockstore", runner).to_csv()
        assert sampled == run_experiment("blockstore").to_csv()
        assert len(runner.sampling_fallbacks) == runner.simulated == 4

    def test_quiet_silences_the_notes(self, capsys):
        argv = ["blockstore", "--tier", "sampled", "--no-cache", "--quiet"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
