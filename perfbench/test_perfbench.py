"""Self-tests for the benchmark, at tiny input sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
from workloads import TINY_FIGURES, WORKLOADS  # noqa: E402


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def passes(name, traced_flags, root=ROOT, tmp=None):
    """Run tiny passes of one workload in this process."""
    work = os.path.join(tmp, "work")
    workload = WORKLOADS[name](root, 1, os.path.join(work, "scratch"), True)
    workload.setup()
    recorder = tracer.Recorder()
    speed = hostspeed.HostSpeed()
    recorder.install(timing=False)
    try:
        return [
            bench.run_pass(
                workload, recorder, speed, traced,
                os.path.join(work, f"records-{index}"),
            )
            for index, traced in enumerate(traced_flags)
        ]
    finally:
        speed.stop()
        recorder.uninstall()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(name, trace):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--tiny", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=170,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert not os.path.exists(os.path.join(HERE, "out", "tmp"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    wanted = [(m["name"], m["unit"]) for m in declared()[kind]]
    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    assert got == wanted
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    report = "\n".join(lines[:-1])
    for metric, unit in wanted:
        assert metric in report
    if trace:
        # Every workload skips some layer; each skipped metric is named on
        # the "not applicable" line and only there reads 0.
        shown_na = {line.split()[0] for line in lines[:-1]
                    if line.split()[-1:] == ["n/a"]}
        (listed,) = [line for line in lines[:-1] if "not applicable to" in line]
        assert shown_na
        assert set(listed.split(": ", 1)[1].split(", ")) == shown_na
        assert all(result["metrics"][m]["value"] == 0 for m in shown_na)
    else:
        assert all(f"{m}" in report for m, _ in wanted)
        assert all(alias in report for alias in WORKLOADS[name].phase_names)
        assert all(f" {unit}" in report for _, unit in wanted)


def test_a_corrupted_golden_counts_exactly_one_failed_table(tmp_path):
    root = tmp_path / "checkout"
    goldens = root / "expected_results"
    goldens.mkdir(parents=True)
    for experiment_id in TINY_FIGURES:
        shutil.copy(
            os.path.join(ROOT, "expected_results", f"{experiment_id}.csv"),
            goldens,
        )
    corrupted = goldens / f"{TINY_FIGURES[0]}.csv"
    corrupted.write_text(corrupted.read_text().replace("1", "2", 1))
    (result,) = passes("figures", [False], root=str(root), tmp=str(tmp_path))
    assert sum(result["failed"]) == 1
    (clean,) = passes("figures", [False], tmp=str(tmp_path))
    assert sum(clean["failed"]) == 0


def test_an_exception_fails_the_rest_of_the_pass(tmp_path, monkeypatch):
    figures = WORKLOADS["figures"]
    original = figures.run_phase

    def broken(self, index, recorder):
        if index == 1:
            raise RuntimeError("injected")
        original(self, index, recorder)

    monkeypatch.setattr(figures, "run_phase", broken)
    (result,) = passes("figures", [False], tmp=str(tmp_path))
    assert "injected" in result["error"]
    assert result["failed"] == [0, 1, 1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_and_unattributed_time_sum_to_the_traced_wall(
    name, tmp_path
):
    (traced,) = passes(name, [True], tmp=str(tmp_path))
    record = traced["record"]
    attributed = sum(self_s for _, self_s in record["stats"].values())
    processes = record["processes"]
    rest = sum(p["probe_s"] + p["unattributed_s"] for p in processes)
    host = sum(p["wall_s"] for p in processes)
    assert attributed > 0
    assert attributed + rest == pytest.approx(host, rel=1e-9)
    if name != "campaign":  # one process: host time is the pass wall
        assert len(processes) == 1
        assert host == pytest.approx(traced["wall_raw"], rel=0.05)
    else:
        assert any(p["worker"] for p in processes)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_never_changes_a_simulated_counter(name, tmp_path):
    untraced, traced = passes(name, [False, True], tmp=str(tmp_path))
    assert untraced["record"]["ops"]
    assert untraced["record"]["ops"] == traced["record"]["ops"]
    assert bench.counter_mismatches([untraced, traced]) == 0
    assert sum(untraced["failed"]) == sum(traced["failed"]) == 0
    assert traced["record"]["stats"]["cpu.tick"][0] > 0
    assert "cpu.tick" not in untraced["record"]["stats"]


def test_the_benchmark_refuses_a_directory_without_the_program(tmp_path):
    copy = tmp_path / "bare"
    shutil.copytree(HERE, copy / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), copy)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=copy, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
