#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workload replay --seeds 1 2 3 4 5
    python3 perfbench/repeat.py --workload figures --seeds 1-10 --out runs.json

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median, which is what
the metric's ``bound`` in BENCHMARK.json is compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(items: List[str]) -> List[int]:
    found: List[int] = []
    for item in items:
        if "-" in item:
            low, high = item.split("-", 1)
            found.extend(range(int(low), int(high) + 1))
        else:
            found.append(int(item))
    return found


def summarise(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "unit": runs[0]["metrics"][name]["unit"],
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", default=["1-10"])
    parser.add_argument("--out", help="also write every run and the summary here")
    args = parser.parse_args()
    runs = []
    for seed in seeds(args.seeds):
        started = time.monotonic()
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["run_s"] = time.monotonic() - started
        runs.append(result)
        print(
            f"seed {seed}: {result['run_s']:.1f} s, correct {result['correct']}, "
            f"failed {result['failed']}/{result['attempted']}",
            file=sys.stderr,
        )
    summary = summarise(runs)
    for name, entry in summary.items():
        print(
            f"{name:42s} median {entry['median']:.6g} {entry['unit']}  "
            f"q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  "
            f"spread {100 * entry['spread']:.2f}%"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "runs": runs,
                       "summary": summary}, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
