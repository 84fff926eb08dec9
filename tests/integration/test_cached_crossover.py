"""The cached-I/O crossover study (non-blocking D-cache enabled).

Pins the emergent lock-hit/lock-miss split — the same locked-PIO kernel
run warm and cold, with the difference produced entirely by the MSHR
miss path — and the golden CSV in expected_results/.
"""

from __future__ import annotations

import os

import pytest

from repro.common.config import MemoryConfig
from repro.common.errors import ConfigError
from repro.evaluation.cached_crossover import (
    CACHED_METHODS,
    cached_crossover_table,
    cached_send_latency,
    lock_miss_penalty,
)

GOLDEN = os.path.join(
    os.path.dirname(__file__), "..", "..", "expected_results",
    "cached-crossover.csv",
)


class TestEmergentSplit:
    def test_lock_miss_costs_about_the_miss_latency(self):
        mem = MemoryConfig(enabled=True)
        penalty = lock_miss_penalty(64)
        # The split is whatever the MSHR path costs: near miss_latency,
        # minus the hit it replaces and any pipeline overlap.
        assert mem.miss_latency - mem.hit_latency - 20 <= penalty
        assert penalty <= mem.miss_latency + 20

    def test_split_scales_with_configured_miss_latency(self):
        slow = MemoryConfig(enabled=True, miss_latency=400)
        assert lock_miss_penalty(64, slow) > lock_miss_penalty(64) * 3

    def test_split_is_size_independent(self):
        # The lock is acquired once per send: the penalty must not grow
        # with the payload.
        assert lock_miss_penalty(16) == lock_miss_penalty(512)

    def test_csb_row_immune_to_lock_residency(self):
        # The CSB path takes no lock, so its latency sits below even the
        # lock-hit PIO path for one-line messages.
        assert cached_send_latency("csb", 64) < cached_send_latency(
            "pio_lock_hit", 64
        )

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            cached_send_latency("pio", 64)
        with pytest.raises(ConfigError):
            cached_send_latency(
                "csb", 64, MemoryConfig(enabled=False)
            )


class TestGolden:
    def test_table_matches_golden_csv(self):
        table = cached_crossover_table()
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            assert table.to_csv() == handle.read()

    def test_row_order(self):
        table = cached_crossover_table(sizes=(16,))
        assert tuple(row[0] for row in table.rows) == CACHED_METHODS

    def test_registered_in_the_experiment_registry(self):
        from repro.evaluation.experiments import EXPERIMENTS

        assert "cached-crossover" in EXPERIMENTS

    def test_runner_mem_overrides_parameterize_the_cache(self):
        from repro.evaluation.runner import SweepRunner

        runner = SweepRunner(overrides={"mem": {"miss_latency": 400}})
        slow = cached_crossover_table(sizes=(16,), runner=runner)
        fast = cached_crossover_table(sizes=(16,))
        slow_by = dict((r[0], r[1]) for r in slow.rows)
        fast_by = dict((r[0], r[1]) for r in fast.rows)
        assert slow_by["pio_lock_miss"] > fast_by["pio_lock_miss"]
        assert slow_by["csb"] == fast_by["csb"]  # no cached accesses


class TestThroughTheRunner:
    """Every point is a runner job, so configs, tiers and the cache reach
    all 32 of them."""

    def test_an_api_config_reaches_every_point(self):
        from repro.api import run_experiment

        baseline = run_experiment("cached-crossover")
        slower = run_experiment("cached-crossover", {"bus": {"cpu_ratio": 4}})
        assert slower.columns == baseline.columns
        assert all(
            new != old for new, old in zip(slower.rows, baseline.rows)
        )

    def test_warm_cli_run_counts_every_point_cached(self, tmp_path, capsys):
        from repro.evaluation.cli import main

        argv = ["cached-crossover", "--cache-dir", str(tmp_path)]
        assert main(argv + ["--quiet"]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "[0 simulated, 32 cached," in capsys.readouterr().err

    def test_sampled_tier_lists_every_point_as_a_fallback(self):
        from repro.common.config import SamplingConfig
        from repro.evaluation.runner import SweepRunner

        runner = SweepRunner(
            sampling=SamplingConfig(enabled=True), log=lambda message: None
        )
        cached_crossover_table(runner=runner)
        assert [name for name, _ in runner.sampling_fallbacks] == [
            f"cached-crossover-{method}-{size}"
            for method in CACHED_METHODS
            for size in (16, 32, 64, 128, 256, 512, 1024, 2048)
        ]
