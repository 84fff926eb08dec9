"""--mem plumbing and the visible sampling fallback.

The CLI's ``--mem KEY=VALUE`` flags become a partial ``mem`` overrides
section on the SweepRunner and reach every sweep job; a sampled sweep
that must run a job detailed now says so (``sampling_fallbacks`` + a log
line) instead of staying silent.
"""

from __future__ import annotations

import pytest

from repro.common.config import SamplingConfig
from repro.evaluation.cli import _make_runner, _mem_from_args, _parser
from repro.evaluation.runner import SimJob, SweepRunner, job_key
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


class TestMemFlag:
    def test_no_flag_means_no_override(self):
        args = _parser().parse_args(["fig3a"])
        assert _mem_from_args(args) is None

    def test_flag_implies_enabled(self):
        args = _parser().parse_args(["fig3a", "--mem", "mshrs=8"])
        assert _mem_from_args(args) == {"mshrs": 8, "enabled": True}

    def test_explicit_disable_wins(self):
        args = _parser().parse_args(["fig3a", "--mem", "enabled=false"])
        assert _mem_from_args(args) == {"enabled": False}

    @pytest.mark.parametrize(
        "flag", ["ways=4", "mshrs=lots", "mshrs", "size_bytes=100"]
    )
    def test_bad_mem_flags_exit(self, flag):
        args = _parser().parse_args(["fig3a", "--mem", flag])
        with pytest.raises(SystemExit):
            _mem_from_args(args)

    def test_runner_carries_partial_overrides(self):
        args = _parser().parse_args(
            ["fig3a", "--no-cache", "--quiet", "--mem", "mshrs=8"]
        )
        runner = _make_runner(args)
        assert runner.overrides == {"mem": {"mshrs": 8, "enabled": True}}


class TestInvalidMergedConfig:
    """Flags valid alone can merge into an invalid per-job config: the CLI
    says so in one line and exits 2, as for other bad input."""

    @pytest.mark.parametrize("check", [False, True], ids=["print", "check"])
    def test_mem_line_size_mismatch_is_a_usage_error(self, capsys, check):
        from repro.evaluation.cli import main

        argv = ["fig3a", "--mem", "enabled=true", "--no-cache"]
        if check:
            argv += ["--check", "expected_results"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [
            "error: data cache line size must match the hierarchy line size"
        ]
        assert "Traceback" not in err


class TestRunnerOverrides:
    def test_overrides_rewrite_jobs_and_cache_keys(self):
        job = _span_job()
        runner = SweepRunner(overrides={"mem": {"enabled": True}})
        rewritten = runner._with_overrides(job)
        assert rewritten.config.mem.enabled
        assert rewritten.config.mem.line_size == job.config.mem.line_size
        assert job_key(rewritten) != job_key(job)

    def test_no_overrides_is_identity(self):
        job = _span_job()
        assert SweepRunner()._with_overrides(job) is job

    def test_overridden_sweep_simulates_with_the_cache(self):
        job = _span_job()
        plain = SweepRunner(jobs=1).run([job])
        cached = SweepRunner(
            jobs=1, overrides={"mem": {"enabled": True}}
        ).run([job])
        assert len(cached) == len(plain) == 1


class TestCliByteIdentity:
    def test_mem_disabled_check_stays_golden(self, capsys):
        # ``--mem enabled=false`` merges to the default config, so the
        # published goldens must verify byte-for-byte through the CLI.
        from repro.evaluation.cli import main

        assert (
            main(
                [
                    "fig3c",
                    "--check",
                    "expected_results",
                    "--no-cache",
                    "--quiet",
                    "--mem",
                    "enabled=false",
                ]
            )
            == 0
        )
        assert "fig3c: OK" in capsys.readouterr().out

    def test_cached_crossover_check_through_the_cli(self, capsys):
        from repro.evaluation.cli import main

        assert (
            main(
                [
                    "cached-crossover",
                    "--check",
                    "expected_results",
                    "--no-cache",
                    "--quiet",
                ]
            )
            == 0
        )
        assert "cached-crossover: OK" in capsys.readouterr().out


class TestVisibleSamplingFallback:
    def test_ineligible_job_is_recorded_and_logged(self):
        notes = []
        runner = SweepRunner(sampling=SAMPLING, log=notes.append)
        smp = _span_job(num_cores=2)
        rewritten = runner._with_sampling(smp)
        assert rewritten is smp
        assert len(runner.sampling_fallbacks) == 1
        name, reason = runner.sampling_fallbacks[0]
        assert name == "rand0"
        assert reason
        assert notes and "detailed tier" in notes[0]

    def test_mem_jobs_fall_back_visibly(self):
        # The data cache is not sampleable: --mem plus --tier sampled
        # must degrade loudly, not silently.
        notes = []
        runner = SweepRunner(
            sampling=SAMPLING,
            overrides={"mem": {"enabled": True}},
            log=notes.append,
        )
        results = runner.run([_span_job()])
        assert len(results) == 1
        assert len(runner.sampling_fallbacks) == 1
        assert "cache" in runner.sampling_fallbacks[0][1]
        assert len(notes) == 1

    def test_eligible_jobs_record_nothing(self):
        runner = SweepRunner(sampling=SAMPLING, log=lambda note: None)
        runner._with_sampling(_span_job())
        assert runner.sampling_fallbacks == []

    def test_default_log_goes_to_stderr(self, capsys):
        runner = SweepRunner(sampling=SAMPLING)
        runner._with_sampling(_span_job(num_cores=2))
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "detailed tier" in captured.err
