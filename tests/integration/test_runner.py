"""The sweep engine: parallel, cached, and serial runs are byte-identical.

The tentpole invariant — ``SweepRunner`` is a pure speedup.  A sweep fanned
out over worker processes, or resolved from the content-addressed cache,
must render to exactly the CSV a fresh serial run produces.  Reduced size
grids keep each case test-fast (full sweeps run in CI's
``csb-figures --all --check expected_results`` gate).
"""

import json
import os
from dataclasses import replace

import pytest

from repro.common.errors import ConfigError
from repro.evaluation import runner as runner_module
from repro.evaluation.ablations import buffer_depth_table
from repro.evaluation.bandwidth import bandwidth_job, panel_table
from repro.evaluation.latency import fig5_table, latency_job
from repro.evaluation.panels import FIG3_PANELS
from repro.evaluation.runner import (
    ResultCache,
    SimJob,
    SweepRunner,
    default_cache_dir,
    execute_job,
    job_key,
)

#: One Figure 3 panel, one Figure 5 panel, one ablation — each at a
#: reduced grid — built through an injected runner.
CASES = {
    "fig3c": lambda r: panel_table(FIG3_PANELS["c"], sizes=(16, 64, 256), runner=r),
    "fig5a": lambda r: fig5_table(lock_hits_l1=True, counts=(2, 5, 8), runner=r),
    "ablation-depth": lambda r: buffer_depth_table(depths=(1, 2, 8), runner=r),
}


def _small_job() -> SimJob:
    return bandwidth_job(FIG3_PANELS["e"], "none", 16)


class TestDeterministicEquivalence:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_parallel_matches_serial_byte_for_byte(self, name):
        build = CASES[name]
        serial = build(SweepRunner(jobs=1)).to_csv()
        parallel = build(SweepRunner(jobs=4)).to_csv()
        assert parallel == serial

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_cached_rerun_matches_and_hits(self, name, tmp_path):
        build = CASES[name]
        directory = str(tmp_path / "cache")
        cold_cache = ResultCache(directory)
        cold_runner = SweepRunner(jobs=1, cache=cold_cache)
        cold = build(cold_runner).to_csv()
        assert cold_runner.simulated > 0
        assert cold_cache.hits == 0

        warm_cache = ResultCache(directory)
        warm_runner = SweepRunner(jobs=1, cache=warm_cache)
        warm = build(warm_runner).to_csv()
        assert warm == cold
        assert warm_runner.simulated == 0
        assert warm_cache.misses == 0
        assert warm_runner.cache_hits == cold_runner.simulated

    def test_parallel_cold_then_serial_warm(self, tmp_path):
        """The cache written by a parallel sweep serves a serial rerun."""
        directory = str(tmp_path / "cache")
        build = CASES["fig3c"]
        cold = build(SweepRunner(jobs=4, cache=ResultCache(directory))).to_csv()
        warm_runner = SweepRunner(jobs=1, cache=ResultCache(directory))
        assert build(warm_runner).to_csv() == cold
        assert warm_runner.simulated == 0

    def test_results_come_back_in_input_order(self):
        jobs = [bandwidth_job(FIG3_PANELS["e"], "none", s) for s in (256, 16)]
        values = SweepRunner(jobs=2).run(jobs)
        assert values == [execute_job(jobs[0]), execute_job(jobs[1])]

    def test_progress_reports_every_job(self, tmp_path):
        seen = []
        cache = ResultCache(str(tmp_path))
        runner = SweepRunner(
            jobs=1, cache=cache, progress=lambda done, total: seen.append((done, total))
        )
        job = _small_job()
        runner.run([job, replace(job, name="again")])
        runner.run([job])  # all three points resolve, hits included
        assert seen == [(1, 2), (2, 2), (1, 1)]


class TestCacheKeys:
    def test_any_config_field_changes_the_key(self):
        job = _small_job()
        reconfigured = replace(
            job,
            config=replace(job.config, bus=replace(job.config.bus, cpu_ratio=7)),
        )
        assert job_key(reconfigured) != job_key(job)

    def test_kernel_changes_the_key(self):
        job = _small_job()
        assert job_key(replace(job, kernel=job.kernel + "\nnop")) != job_key(job)

    def test_version_tag_changes_the_key(self, monkeypatch):
        job = _small_job()
        before = job_key(job)
        monkeypatch.setattr(runner_module, "SIM_VERSION", "csb-sim-TEST")
        assert job_key(job) != before

    def test_measurement_args_and_warm_change_the_key(self):
        warm = latency_job("none", 2, lock_hits_l1=True)
        cold = latency_job("none", 2, lock_hits_l1=False)
        assert job_key(warm) != job_key(cold)

    def test_display_name_does_not_change_the_key(self):
        job = _small_job()
        assert job_key(replace(job, name="renamed")) == job_key(job)


class TestCacheRobustness:
    def _prime(self, directory):
        job = _small_job()
        [value] = SweepRunner(cache=ResultCache(directory)).run([job])
        return job, job_key(job), value

    @pytest.mark.parametrize(
        "garbage",
        [
            "",                        # empty file
            '{"value": 1.',            # truncated JSON
            "not json at all",
            '{"no_value_key": 3}',
            '{"value": "a string"}',   # wrong type
            '{"value": true}',         # bool is not a measurement
            '{"value": null}',
        ],
    )
    def test_corrupt_entry_is_recomputed_not_crashed(self, tmp_path, garbage):
        directory = str(tmp_path)
        job, key, value = self._prime(directory)
        with open(os.path.join(directory, f"{key}.json"), "w") as handle:
            handle.write(garbage)
        cache = ResultCache(directory)
        runner = SweepRunner(cache=cache)
        [recomputed] = runner.run([job])
        assert recomputed == value
        assert runner.simulated == 1 and cache.hits == 0
        # The recompute healed the entry in place.
        assert ResultCache(directory).get(key) == value

    def test_roundtrip_is_exact(self, tmp_path):
        directory = str(tmp_path)
        job, key, value = self._prime(directory)
        cached = ResultCache(directory).get(key)
        assert cached == value and type(cached) is type(value)

    def test_entry_records_version_and_name(self, tmp_path):
        directory = str(tmp_path)
        _, key, _ = self._prime(directory)
        with open(os.path.join(directory, f"{key}.json")) as handle:
            document = json.load(handle)
        assert document["version"] == runner_module.SIM_VERSION

    def test_unwritable_cache_does_not_fail_the_sweep(self, tmp_path):
        directory = str(tmp_path / "ro")
        cache = ResultCache(directory)
        os.chmod(directory, 0o500)
        try:
            [value] = SweepRunner(cache=cache).run([_small_job()])
            assert value > 0
        finally:
            os.chmod(directory, 0o700)


class TestExperimentTableCache:
    """The whole-table layer used for studies that are not SimJob sweeps."""

    def test_key_varies_by_experiment_and_version(self, monkeypatch):
        from repro.evaluation.runner import experiment_key

        assert experiment_key("blockstore") != experiment_key("crossover")
        before = experiment_key("blockstore")
        monkeypatch.setattr(runner_module, "SIM_VERSION", "csb-sim-TEST")
        assert experiment_key("blockstore") != before

    def test_table_roundtrips_exactly(self, tmp_path):
        from repro.evaluation.experiments import run_experiment

        table = run_experiment("blockstore")
        cache = ResultCache(str(tmp_path))
        cache.put_table("k", table, name="blockstore")
        restored = ResultCache(str(tmp_path)).get_table("k")
        assert restored.render() == table.render()
        assert restored.to_csv() == table.to_csv()
        assert restored.to_markdown() == table.to_markdown()

    def test_sweep_tables_never_read_the_table_cache(self, tmp_path):
        # A sweep's table key carries no config content, so an entry
        # stored under it would outlive a change to the sweep's points.
        from repro.common.tables import Table
        from repro.evaluation.cli import _resolve_table
        from repro.evaluation.runner import experiment_key

        cache = ResultCache(str(tmp_path))
        runner = SweepRunner(jobs=1, cache=cache)
        bogus = Table(["stale"])
        bogus.add_row(1)
        key = experiment_key("fig5a")
        cache.put_table(key, bogus, name="fig5a")
        for _ in range(2):  # cold per-job cache, then warm
            table = _resolve_table("fig5a", runner, [])
            assert table.columns != bogus.columns
        assert runner.simulated > 0 and runner.cache_hits == runner.simulated
        assert cache.get_table(key).columns == bogus.columns  # left alone

    def test_corrupt_table_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with open(os.path.join(str(tmp_path), "k.json"), "w") as handle:
            handle.write('{"table": {"columns": [], "rows": "junk"}}')
        assert cache.get_table("k") is None
        assert cache.misses == 1

    def test_cli_warm_run_is_byte_identical(self, tmp_path, capsys):
        from repro.evaluation.cli import main

        argv = ["blockstore", "--cache-dir", str(tmp_path), "--quiet"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == cold


class TestJobValidation:
    def test_unknown_measurement_rejected(self):
        job = _small_job()
        with pytest.raises(ConfigError):
            replace(job, measurement="power")

    def test_span_needs_two_labels(self):
        job = _small_job()
        with pytest.raises(ConfigError):
            replace(job, measurement="span", args=("only-start",))

    def test_runner_needs_a_job_slot(self):
        with pytest.raises(ConfigError):
            SweepRunner(jobs=0)

    def test_default_cache_dir_honours_env(self, monkeypatch):
        monkeypatch.setenv("CSB_CACHE_DIR", "/tmp/somewhere")
        assert default_cache_dir() == "/tmp/somewhere"
