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

from repro.common.config import BusConfig, SystemConfig
from repro.common.errors import ConfigError
from repro.evaluation import runner as runner_module
from repro.evaluation.ablations import buffer_depth_table
from repro.evaluation.bandwidth import bandwidth_job, panel_table
from repro.evaluation.blockstore import blockstore_table
from repro.evaluation.cached_crossover import cached_crossover_table
from repro.evaluation.crossover import crossover_table, send_latency
from repro.evaluation.fault_sweep import fault_sweep_table
from repro.evaluation.latency import fig5_table, latency_job
from repro.evaluation.loaded_bus import loaded_bus_table, miss_interleaved_table
from repro.evaluation.panels import FIG3_PANELS
from repro.evaluation.rtt import pingpong_rtt, rtt_table
from repro.evaluation.runner import (
    PointJob,
    ResultCache,
    SimJob,
    SweepRunner,
    default_cache_dir,
    execute_job,
    job_key,
)
from repro.evaluation.smp_contention import smp_contention_table
from repro.evaluation.sync_mechanisms import sync_mechanism_table

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
    """Whole experiment tables resolved from the per-job cache."""

    def test_table_roundtrips_exactly(self, tmp_path):
        # blockstore's points are tuple-valued: (cycles, instructions).
        from repro.evaluation.experiments import run_experiment

        cold = SweepRunner(cache=ResultCache(str(tmp_path)))
        table = run_experiment("blockstore", cold)
        warm = SweepRunner(cache=ResultCache(str(tmp_path)))
        restored = run_experiment("blockstore", warm)
        assert (cold.simulated, warm.simulated, warm.cache_hits) == (4, 0, 4)
        assert restored.render() == table.render()
        assert restored.to_csv() == table.to_csv()
        assert restored.to_markdown() == table.to_markdown()

    def test_cli_warm_run_is_byte_identical(self, tmp_path, capsys):
        from repro.evaluation.cli import main

        argv = ["blockstore", "--cache-dir", str(tmp_path), "--quiet"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == cold


def _point_job(**changes) -> PointJob:
    job = PointJob(send_latency, ("csb", 16), SystemConfig(), name="p")
    return replace(job, **changes)


#: Every study that builds its own systems (or once did), each at a
#: reduced grid, built through an injected runner.
STUDIES = {
    "pingpong": lambda r: rtt_table(payload_dwords=(1,), runner=r),
    "loaded-bus": lambda r: loaded_bus_table(
        refill_periods=(0, 12), total_bytes=256, runner=r
    ),
    "loaded-bus-misses": lambda r: miss_interleaved_table(sizes=(256,), runner=r),
    "crossover": lambda r: crossover_table(sizes=(16, 256), runner=r),
    "cached-crossover": lambda r: cached_crossover_table(sizes=(16,), runner=r),
    "blockstore": lambda r: blockstore_table(runner=r),
    "fault-sweep": lambda r: fault_sweep_table(
        rates=(0.0, 0.05), iterations=8, runner=r
    ),
    "smp-contention": lambda r: smp_contention_table(
        core_counts=(2,), iterations=2, runner=r
    ),
    "sync-mechanisms": lambda r: sync_mechanism_table(counts=(2,), runner=r),
}


class TestPointJobs:
    def test_equal_jobs_share_a_key(self):
        assert job_key(_point_job()) == job_key(_point_job())
        assert job_key(_point_job(name="renamed")) == job_key(_point_job())

    @pytest.mark.parametrize(
        "changes",
        [
            {"point": pingpong_rtt},
            {"args": ("csb", 32)},
            {"config": replace(SystemConfig(), bus=BusConfig(cpu_ratio=4))},
        ],
        ids=["point", "args", "config"],
    )
    def test_function_args_and_config_change_the_key(self, changes):
        assert job_key(_point_job(**changes)) != job_key(_point_job())

    def test_version_tag_changes_the_key(self, monkeypatch):
        before = job_key(_point_job())
        monkeypatch.setattr(runner_module, "SIM_VERSION", "csb-sim-TEST")
        assert job_key(_point_job()) != before

    def test_tuple_result_round_trips(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k", (52, 17))
        assert ResultCache(str(tmp_path)).get("k") == (52, 17)
        assert isinstance(ResultCache(str(tmp_path)).get("k"), tuple)

    @pytest.mark.parametrize(
        "value", [[], [1, "x"], [True, 2], [[1], 2], [1, None]]
    )
    def test_corrupt_list_entry_is_a_miss(self, tmp_path, value):
        cache = ResultCache(str(tmp_path))
        cache.put("k", value)  # a well-formed digest over a bad value
        assert cache.get("k") is None
        assert (cache.hits, cache.misses) == (0, 1)

    @pytest.mark.parametrize("name", sorted(STUDIES))
    def test_parallel_matches_serial_byte_for_byte(self, name):
        build = STUDIES[name]
        serial = build(SweepRunner(jobs=1)).to_csv()
        parallel = build(SweepRunner(jobs=2)).to_csv()
        assert parallel == serial


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
