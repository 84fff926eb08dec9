#!/usr/bin/env python3
"""Benchmark for the CSB reproduction: figures, trace replay, campaigns.

Run from the repository root::

    python3 perfbench/run.py --workload figures            # untraced
    python3 perfbench/run.py --workload replay --seed 7
    python3 perfbench/run.py --workload campaign --trace 1 # per layer

Workloads: ``figures``, ``replay``, ``campaign`` (see README.md here).
The program under test is ``src/repro`` of the same checkout, imported
from source; nothing is installed.  Report lines go to stdout first; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (every ``end_to_end`` metric of
BENCHMARK.json with ``--trace 0``, every ``per_layer`` metric with
``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import hostspeed
from workloads import WORKLOADS  # neither imports repro

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Seconds every run must stay under, set-up included.
RUN_LIMIT = 170.0

#: Fresh interpreters timed for ``setup_s``, whose median is reported
#: (one with ``--tiny``).
SETUP_RUNS = 5


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Benchmark figures, trace replay and campaigns."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=1,
        help="replay trace seed (default 1; figures and campaign inputs "
        "are fixed by the paper)",
    )
    parser.add_argument(
        "--seconds", type=float,
        help="measurement budget; passes repeat until it is spent "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="reduced inputs and one set-up run, for the benchmark's self-tests",
    )
    parser.add_argument(
        "--role", choices=("main", "setup", "measure"), default="main",
        help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)
    args.root = ROOT
    return args


def checkout_problem() -> Optional[str]:
    """Why this checkout cannot be benchmarked, or None."""
    for relative in ("src/repro/__init__.py", "expected_results",
                     "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, relative)):
            return f"missing {relative} under {ROOT}"
    return None


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``
    from there, never from an installed copy."""
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    import repro

    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not {source}")


# -- child roles -------------------------------------------------------------


def setup_child(args: argparse.Namespace) -> int:
    """Interpreter start -> first simulation: time the workload set-up."""
    speed = hostspeed.HostSpeed()
    speed.start()
    import_program()
    workload = WORKLOADS[args.workload](
        ROOT, args.seed, os.path.join(HERE, "out", "unused"), args.tiny
    )
    workload.setup()
    ready = time.monotonic()
    speed.stop()
    kernel, overhead = speed.window(0)
    print(json.dumps({"ready": ready, "kernel": kernel, "overhead": overhead}))
    return 0


def measure_child(args: argparse.Namespace) -> int:
    import_program()
    import bench

    return bench.main(args)


# -- the entry role --------------------------------------------------------------


#: Temporary files of the children, kept inside the checkout and removed
#: when the run ends.
TMP = os.path.join(HERE, "out", "tmp")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    os.makedirs(TMP, exist_ok=True)
    env["TMPDIR"] = TMP
    return env


def run_child(args: argparse.Namespace, role: str, timeout: float) -> str:
    """Run this script in a fresh interpreter; return its last stdout line.

    The child leads its own process group, so a timeout kills it and any
    worker it forked, and waits for them.
    """
    command = [
        sys.executable, os.path.abspath(__file__), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.tiny:
        command.append("--tiny")
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        start_new_session=True, text=True,
    )
    try:
        out, _ = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{role} run exceeded {timeout:.0f} s") from None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)  # stray workers, if any
        except ProcessLookupError:
            pass
        process.wait()
        # A killed measuring child could not remove its scratch tree.
        shutil.rmtree(os.path.join(HERE, "out", f"work-{process.pid}"),
                      ignore_errors=True)
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"{role} run failed with exit code {process.returncode}")
    return lines[-1]


def time_setup(args: argparse.Namespace, deadline: float) -> Dict[str, float]:
    """Median set-up time over fresh interpreters, after one unmeasured
    run that fills the bytecode caches."""
    raw, normalised = [], []
    for attempt in range((1 if args.tiny else SETUP_RUNS) + 1):
        started = time.monotonic()
        reply = json.loads(run_child(args, "setup", deadline - time.monotonic()))
        if attempt == 0:
            continue
        seconds = reply["ready"] - started
        raw.append(seconds)
        normalised.append(
            hostspeed.normalise(seconds, reply["kernel"], reply["overhead"])
        )
    return {"value": statistics.median(normalised), "raw": statistics.median(raw)}


def benchmark_declaration() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def report(args, summary, setup, declared) -> Dict[str, Any]:
    """Print the readable report; return the ``metrics`` document."""
    name = args.workload
    print(
        f"perfbench {name}: seed {summary['seed']}, {summary['passes']} "
        f"pass(es), {summary['traced_passes']} traced; operations per pass "
        f"{dict(zip(summary['labels'], summary['ops']))}"
    )
    metrics: Dict[str, Any] = {}
    # A pass an exception cut short has no metrics; they print as 0 and
    # the result reads correct: false.
    if not args.trace:
        values = dict(summary["end_to_end"].get("normalised", {}))
        raws = dict(summary["end_to_end"].get("raw", {}))
        values["setup_s"], raws["setup_s"] = setup["value"], setup["raw"]
        values["peak_rss_mb"] = summary["peak_rss_mb"]
        for entry in declared["end_to_end"]:
            metric, unit = entry["name"], entry["unit"]
            value = values.get(metric, 0.0)
            alias = ""
            if metric.startswith("phase"):
                phase = int(metric[len("phase")]) - 1
                alias = f"  ({WORKLOADS[name].phase_names[phase]})"
            raw = f"  raw {raws[metric]:.6g} {unit}" if metric in raws else ""
            print(f"  {metric:18s} {value:.6g} {unit}{alias}{raw}")
            metrics[metric] = {"value": value, "unit": unit}
    else:
        # The result line must hold a number for every metric, so a
        # metric that does not apply to this workload is written as 0 and
        # named on the "not applicable" line, never read as a measurement.
        layer = summary.get("per_layer", {})
        missing = []
        for entry in declared["per_layer"]:
            metric, unit = entry["name"], entry["unit"]
            value = layer.get(metric)
            if value is None:
                missing.append(metric)
            shown = "n/a" if value is None else f"{value:.6g} {unit}"
            print(f"  {metric:42s} {shown}")
            metrics[metric] = {"value": 0 if value is None else value, "unit": unit}
        print(f"  not applicable to {name} (0 in the result line): "
              f"{', '.join(missing) or 'none'}")
    print(
        f"  attempted {summary['attempted']}, failed {summary['failed']} "
        f"(counter mismatches {summary['counter_mismatches']})"
    )
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    problem = checkout_problem()
    if problem is not None:
        print(f"perfbench: cannot run: {problem}", file=sys.stderr)
        return 2
    if args.role == "setup":
        return setup_child(args)
    if args.role == "measure":
        return measure_child(args)
    # On SIGTERM, unwind through run_child so the child's process group
    # is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT
    declared = benchmark_declaration()
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    try:
        setup = {"value": 0.0, "raw": 0.0}
        if not args.trace:
            setup = time_setup(args, deadline)
        summary = json.loads(
            run_child(args, "measure", deadline - time.monotonic())
        )
    except (RuntimeError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    metrics = report(args, summary, setup, declared)
    failed = summary["failed"]
    print(
        json.dumps(
            {
                "correct": failed == 0 and not summary["errors"],
                "attempted": summary["attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
