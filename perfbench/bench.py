"""Measure one workload inside one fresh interpreter.

``run.py`` starts this module's :func:`main` in a child interpreter (so
the workload's peak RSS is its own) after timing the set-up separately.
Passes repeat until the time budget is spent; end-to-end metrics are
medians over the untraced passes.  With ``--trace 1`` untraced and
traced passes alternate and the per-layer metrics come from the traced
ones.  The last stdout line is a JSON document ``run.py`` reads.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Tuple

import hostspeed
import tracer
from workloads import WORKLOADS

clock = time.perf_counter


def run_pass(workload, recorder, speed, traced: bool, outdir: str) -> Dict:
    """One pass over the workload's phases, then its output checks.

    The host-speed sampler runs during each phase of an untraced pass.
    A traced pass is normalised by samples taken just before and after
    it instead, so no sample lands inside a traced layer.
    """
    workload.reset()
    if traced:
        before = _kernel_now()
        recorder.install(timing=True)
    recorder.start_pass(outdir)
    phases: List[float] = []
    windows: List[Tuple[float, float]] = []
    error = ""
    start = clock()
    try:
        for index in range(len(workload.labels)):
            if not traced:
                speed.start()
            mark = speed.mark()
            phase_start = clock()
            try:
                workload.run_phase(index, recorder)
            finally:
                phases.append(clock() - phase_start)
                speed.stop()
                if not traced:
                    windows.append(speed.window(mark))
    except Exception:  # the rest of the pass counts as failed
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    wall = clock() - start
    record = recorder.finish_pass()
    if traced:
        recorder.install(timing=False)
        windows = [((before + _kernel_now()) / 2, 0.0)] * len(phases)
    normalised = [
        hostspeed.normalise(raw, *window) for raw, window in zip(phases, windows)
    ]
    failed = workload.check()
    return {
        "traced": traced,
        "raw": phases,
        "normalised": normalised,
        "kernel": [window[0] for window in windows],
        "wall_raw": wall,
        "failed": failed,
        "error": error,
        "record": record,
        "requeues": workload.requeues(),
    }


def _kernel_now(samples: int = 15) -> float:
    return statistics.median(hostspeed.sample() for _ in range(samples))


def end_to_end(workload, passes: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Median over untraced passes, normalised and raw."""
    ops = workload.ops()
    result: Dict[str, Dict[str, float]] = {}
    for kind in ("normalised", "raw"):
        rows = []
        for p in passes:
            times = p[kind]
            if len(times) != len(ops):
                continue
            wall = sum(times)
            row = {
                "wall_s": wall,
                "sim_insts_per_s": p["record"]["totals"]["retired"] / wall,
            }
            for index, (count, seconds) in enumerate(zip(ops, times), 1):
                row[f"phase{index}_per_s"] = count / seconds
            rows.append(row)
        if rows:
            result[kind] = {
                name: statistics.median(row[name] for row in rows)
                for name in rows[0]
            }
    return result


def per_layer(workload, traced: List[Dict], untraced: List[Dict]) -> Dict:
    """Per-layer metrics of the first traced pass; None marks not
    applicable.  The traced wall is the median over every traced pass.

    ``_pct`` metrics are a layer's self time as a share of the pass's
    host time, summed over every process.
    """
    record = traced[0]["record"]
    stats = record["stats"]
    totals = record["totals"]
    host = sum(p["wall_s"] for p in record["processes"])

    def calls(*layers: str) -> int:
        return sum(int(stats.get(layer, (0, 0.0))[0]) for layer in layers)

    def pct(*layers: str):
        if not calls(*layers):
            return None
        return 100.0 * sum(stats[l][1] for l in layers if l in stats) / host

    def ratio(num: float, den: float):
        return num / den if den else None

    cycles = totals["cycles"]
    flushes = totals["csb_flushes"]
    metrics: Dict[str, Any] = {
        "sim.loop.self_pct": pct("sim.loop"),
        "sim.build.calls": calls("sim.build"),
        "sim.build.self_pct": pct("sim.build"),
        "sim.scheduler.self_pct": pct("sim.scheduler"),
        "sim.cycles": cycles,
        "sim.tick_calls_per_cycle": ratio(
            calls("cpu.tick", "uncached.tick_cpu", "bus.tick_bus",
                  "devices.tick"),
            cycles,
        ),
        "cpu.tick.calls": calls("cpu.tick"),
        "cpu.tick.self_pct": pct("cpu.tick"),
        "cpu.retired": totals["retired"],
        "cpu.ipc": ratio(totals["retired"], totals["core_cycles"]),
        "cpu.rob_full_stalls": totals["rob_full_stalls"],
        "cpu.uncached_store_stalls": totals["uncached_store_stalls"],
        "uncached.tick_cpu.self_pct": pct("uncached.tick_cpu"),
        "uncached.issue.calls": calls("uncached.issue"),
        "uncached.issue.self_pct": pct("uncached.issue"),
        "uncached.stores_combined": totals["stores_combined"],
        "uncached.full_stalls": totals["full_stalls"],
        "uncached.csb.flushes": flushes,
        "uncached.csb.flush_conflicts": totals["csb_flush_conflicts"],
        "uncached.csb.useful_ratio": (
            1.0 - totals["csb_flush_conflicts"] / flushes if flushes else None
        ),
        "bus.tick_bus.calls": calls("bus.tick_bus"),
        "bus.tick_bus.self_pct": pct("bus.tick_bus"),
        "bus.transactions": totals["bus_transactions"],
        "bus.utilization": ratio(totals["bus_busy_cycles"], totals["bus_cycles"]),
        "bus.efficiency": ratio(totals["useful_bytes"], totals["wire_bytes"]),
        "devices.tick.calls": calls("devices.tick"),
        "devices.tick.self_pct": pct("devices.tick"),
        "devices.ring.enqueued": totals["ring_enqueued"] if totals["rings"] else None,
        "devices.ring.drops": totals["ring_drops"] if totals["rings"] else None,
        "devices.ring.mean_occupancy": ratio(
            totals["ring_occupancy"], totals["ring_ticks"]
        ),
        "memory.access.calls": calls("memory.access"),
        "memory.access.self_pct": pct("memory.access"),
        "isa.assemble.calls": calls("isa.assemble"),
        "isa.assemble.self_pct": pct("isa.assemble"),
        "workloads.compile_window.calls": calls("workloads.compile_window"),
        "workloads.compile_window.self_pct": pct("workloads.compile_window"),
        "workloads.synthesize.self_pct": pct("workloads.synthesize"),
        "evaluation.execute_job.self_pct": pct("evaluation.execute_job"),
        "evaluation.job_key.self_pct": pct("evaluation.job_key"),
        "evaluation.cache.get.calls": calls("evaluation.cache.get"),
        "evaluation.cache.get.self_pct": pct("evaluation.cache.get"),
        "evaluation.cache.put.calls": calls("evaluation.cache.put"),
        "evaluation.cache.put.self_pct": pct("evaluation.cache.put"),
        "evaluation.cache.hit_ratio": ratio(
            record["cache_hits"], calls("evaluation.cache.get")
        ),
        "evaluation.store.write_status.calls": calls(
            "evaluation.store.write_status"
        ),
        "evaluation.store.write_status.self_pct": pct(
            "evaluation.store.write_status"
        ),
    }
    metrics.update(_pool_metrics(workload, traced[0]))
    unattributed = sum(
        p["unattributed_s"] + p["probe_s"] for p in record["processes"]
    )
    metrics["trace.host_s"] = host
    metrics["trace.unattributed_pct"] = 100.0 * unattributed / host
    metrics["trace.wall_s"] = statistics.median(
        sum(p["normalised"]) for p in traced
    )
    metrics["trace_overhead"] = ratio(
        metrics["trace.wall_s"],
        statistics.median(sum(p["normalised"]) for p in untraced),
    )
    return metrics


def _pool_metrics(workload, traced: Dict) -> Dict[str, Any]:
    """Process-pool cost: worker capacity not spent inside
    ``execute_job``, simulations beyond one per distinct job, requeues."""
    if not workload.pool_phases:
        return {
            "evaluation.pool.overhead_pct": None,
            "evaluation.pool.duplicate_sims": None,
            "evaluation.pool.requeues": None,
        }
    record = traced["record"]
    capacity = sum(
        traced["raw"][index] * width
        for index, width in workload.pool_phases.items()
        if index < len(traced["raw"])
    )
    worker_pids = {p["pid"] for p in record["processes"] if p["worker"]}
    in_jobs = sum(
        end - start
        for pid, layer, start, end, _, _ in record["spans"]
        if pid in worker_pids and layer == "evaluation.execute_job"
    )
    sims = int(record["stats"].get("evaluation.execute_job", (0, 0.0))[0])
    return {
        "evaluation.pool.overhead_pct": 100.0 * (capacity - in_jobs) / capacity,
        "evaluation.pool.duplicate_sims": sims - workload.expected_sims(),
        "evaluation.pool.requeues": traced["requeues"],
    }


def counter_mismatches(passes: List[Dict]) -> int:
    """Operations whose simulated counters differ from the first pass's."""
    reference = passes[0]["record"]["ops"]
    mismatched = 0
    for p in passes[1:]:
        ops = p["record"]["ops"]
        keys = set(reference) | set(ops)
        mismatched += sum(1 for k in keys if reference.get(k) != ops.get(k))
    return mismatched


def measure(name: str, root: str, seed: int, seconds: float, trace: bool,
            tiny: bool) -> Dict[str, Any]:
    """Set up, run passes for ``seconds``, and summarise."""
    out = os.path.join(root, "perfbench", "out")
    work = os.path.join(out, f"work-{os.getpid()}")
    workload = WORKLOADS[name](root, seed, os.path.join(work, "scratch"), tiny)
    recorder = tracer.Recorder()
    speed = hostspeed.HostSpeed()
    passes: List[Dict] = []
    peak_rss_mb = 0.0
    try:
        workload.setup()
        recorder.install(timing=False)
        started = clock()
        while True:
            traced = trace and len(passes) % 2 == 1
            outdir = os.path.join(work, f"records-{len(passes)}")
            passes.append(run_pass(workload, recorder, speed, traced, outdir))
            if len(passes) == 1:
                # The heap creeps up a little with every pass, and how
                # many passes fit depends on host speed.
                peak_rss_mb = _peak_rss_mb()
            if passes[-1]["error"]:
                break
            elapsed = clock() - started
            enough = len(passes) >= (2 if trace else 1)
            if enough and elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    finally:
        speed.stop()
        recorder.uninstall()
        _remove(work)
    ops = workload.ops()
    attempted = sum(ops) * len(passes)
    failed = sum(sum(p["failed"]) for p in passes)
    mismatched = counter_mismatches(passes)
    untraced = [p for p in passes if not p["traced"]]
    summary: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "traced_passes": sum(1 for p in passes if p["traced"]),
        "ops": ops,
        "labels": list(workload.labels),
        "attempted": attempted,
        "failed": failed + mismatched,
        "counter_mismatches": mismatched,
        "errors": [p["error"] for p in passes if p["error"]],
        "end_to_end": end_to_end(workload, untraced),
        "peak_rss_mb": peak_rss_mb,
    }
    traced = [p for p in passes if p["traced"]]
    if traced:
        summary["per_layer"] = per_layer(workload, traced, untraced)
        _write_spans(out, name, traced[0]["record"]["spans"])
    return summary


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _write_spans(out: str, name: str, spans: List) -> None:
    """Spans of the traced pass, one JSON array per line:
    ``[pid, layer, start, end, parent, op]``."""
    path = os.path.join(out, f"spans-{name}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def _remove(path: str) -> None:
    import shutil

    shutil.rmtree(path, ignore_errors=True)


def main(args) -> int:
    summary = measure(
        args.workload, args.root, args.seed, args.seconds, bool(args.trace),
        args.tiny,
    )
    print(json.dumps(summary))
    return 0
