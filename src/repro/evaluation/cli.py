"""``csb-figures`` — regenerate the paper's evaluation from the command line.

Examples::

    csb-figures --list
    csb-figures fig3c fig5a
    csb-figures --all --out results/ --jobs 4
    csb-figures --all --check expected_results --no-cache
    csb-figures cached-crossover --mem mshrs=8 --mem miss_latency=400
    csb-figures fig3c --trace-events trace.jsonl --metrics-out metrics.json
    csb-figures profile fig3c
    csb-figures lint --format json
    csb-figures replay --trace synth:n=10000,seed=7,gap=40,devices=2
    csb-figures replay --trace logs/io.trace --discipline lock --cores 2

Sweeps fan out over ``--jobs`` worker processes and reuse a
content-addressed result cache under ``--cache-dir`` (disable with
``--no-cache``).  Both are pure speedups: output is byte-identical to a
serial, uncached run.

Observability: ``--trace-events FILE`` streams every simulator event of
every job as JSONL; ``--metrics-out FILE`` writes an end-of-run metrics
snapshot per job.  Either flag forces jobs to simulate fresh and
serially (sinks cannot be fed from the cache), but the printed tables
are byte-identical — tracing is passive.  The ``profile`` subcommand
reruns one representative point per scheme of a figure experiment and
prints a bus-cycle accounting table (see docs/observability.md).

The ``lint`` subcommand statically checks every registered workload
kernel against the CSB protocol rules and exits non-zero on any finding
(see docs/static_analysis.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.common.errors import ConfigError
from repro.common.tables import Table
from repro.evaluation.experiments import (
    experiment_ids,
    ignores_runner,
    run_experiment,
)
from repro.evaluation.runner import (
    ResultCache,
    SweepRunner,
    default_cache_dir,
    experiment_key,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csb-figures",
        description=(
            "Regenerate the tables behind every figure panel of "
            "'Improving I/O Performance with a Conditional Store Buffer' "
            "(MICRO 1998)."
        ),
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids (e.g. fig3c)")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--out", metavar="DIR", help="also write each table as CSV into DIR"
    )
    parser.add_argument(
        "--precision", type=int, default=2, help="decimal places (default 2)"
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="print tables as GitHub-flavoured markdown",
    )
    parser.add_argument(
        "--check",
        metavar="DIR",
        help=(
            "regression mode: regenerate each experiment and diff its CSV "
            "against DIR/<id>.csv; exit 1 on any mismatch"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=os.cpu_count() or 1,
        help="worker processes per sweep (default: CPU count)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=default_cache_dir(),
        help=(
            "content-addressed result cache directory "
            "(default: $CSB_CACHE_DIR or ~/.cache/csb-figures)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the result cache",
    )
    parser.add_argument(
        "--tier",
        choices=("detailed", "sampled"),
        default="detailed",
        help=(
            "execution tier: 'detailed' (default) is the full "
            "cycle-accurate model; 'sampled' alternates functional "
            "fast-forward with cycle-accurate measurement windows "
            "(faster, statistical — see docs/modeling.md)"
        ),
    )
    parser.add_argument(
        "--sample",
        action="append",
        metavar="KEY=VALUE",
        help=(
            "override a sampling parameter (repeatable; implies "
            "--tier sampled): ff_instructions, warmup_cycles, "
            "window_cycles, confidence"
        ),
    )
    parser.add_argument(
        "--mem",
        action="append",
        metavar="KEY=VALUE",
        help=(
            "enable the non-blocking data cache and override a "
            "MemoryConfig parameter (repeatable): size_bytes, line_size, "
            "associativity, hit_latency, miss_latency, mshrs, "
            "write_policy, bus_traffic; '--mem enabled=true' enables it "
            "with the defaults"
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-experiment progress on stderr",
    )
    parser.add_argument(
        "--trace-events",
        metavar="FILE",
        help=(
            "stream every simulator event of every sweep job to FILE as "
            "JSONL (forces fresh, serial simulation; tables unchanged)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help=(
            "write an end-of-run metrics snapshot per sweep job to FILE "
            "as JSON (forces fresh, serial simulation; tables unchanged)"
        ),
    )
    return parser


def _fields_from_flags(cls, items, flag: str) -> dict:
    """Fold repeatable ``KEY=VALUE`` flags into the fields of one config
    section, ``enabled`` defaulting to true, and check that they build
    one: the parser behind ``--sample`` and ``--mem`` (``--tier sampled``
    feeds it no flags)."""
    from repro.common.serialize import parse_field_assignments

    try:
        fields = parse_field_assignments(cls, items or [], flag)
        fields.setdefault("enabled", True)
        cls(**fields)
    except ConfigError as exc:
        raise SystemExit(f"error: {exc}")
    return fields


def _sampling_from_args(args: argparse.Namespace):
    """The :class:`SamplingConfig` override the flags describe, or None."""
    if args.tier != "sampled" and not args.sample:
        return None
    from repro.common.config import SamplingConfig

    return SamplingConfig(
        **_fields_from_flags(SamplingConfig, args.sample, "--sample")
    )


def _mem_from_args(args: argparse.Namespace):
    """The partial ``mem`` overrides dict ``--mem`` describes, or None.

    Any ``--mem`` flag enables the data cache unless it explicitly says
    ``enabled=false`` (useful to assert the cache-off baseline).  Only
    the fields actually given travel in the override, so sweeps that
    vary the line size keep each point's own ``mem.line_size``.
    """
    if not args.mem:
        return None
    from repro.common.config import MemoryConfig

    return _fields_from_flags(MemoryConfig, args.mem, "--mem")


def _make_runner(
    args: argparse.Namespace, trace_stream=None
) -> SweepRunner:
    if args.jobs < 1:
        raise SystemExit("error: --jobs must be at least 1")
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    progress = None
    if not args.quiet and sys.stderr.isatty():
        def progress(done: int, total: int) -> None:
            print(f"\r  {done}/{total} points", end="", file=sys.stderr)
            if done == total:
                print(file=sys.stderr)
    observer_factory = None
    if trace_stream is not None:
        from repro.observability.sinks import JsonlSink

        def observer_factory(job):
            return [JsonlSink(trace_stream, extra={"job": job.name})]

    mem = _mem_from_args(args)
    overrides = {"mem": mem} if mem is not None else None
    log = (lambda message: None) if args.quiet else None
    return SweepRunner(
        jobs=args.jobs,
        cache=cache,
        progress=progress,
        observer_factory=observer_factory,
        collect_metrics=bool(args.metrics_out),
        sampling=_sampling_from_args(args),
        overrides=overrides,
        log=log,
    )


def _resolve_table(
    experiment_id: str, runner: SweepRunner, outside: List[str]
) -> Table:
    """Run one experiment through the runner, with a whole-table cache in
    front for the studies that cannot be decomposed into SimJobs.  A
    sweep's points resolve through the runner's per-job cache, which keys
    each by its config content; a whole-table entry, keyed by id and
    SIM_VERSION alone, would outlive a change to the sweep's points.  A
    study outside the runner ignores its sampling and overrides, so one
    entry serves it under every flag.  In observed mode (tracing/metrics)
    the table cache is bypassed so every job actually simulates.

    A study that runs outside the runner gets a note through the
    runner's log when a flag it ignores was given, and its id joins
    ``outside`` when it runs.
    """
    outsider = ignores_runner(experiment_id)
    if outsider:
        ignored = [
            flag
            for flag, given in (
                ("--tier sampled", runner.sampling is not None),
                ("--mem", bool(runner.overrides)),
            )
            if given
        ]
        if ignored:
            runner.log(
                f"note: {experiment_id} runs outside the sweep runner and "
                f"ignores {' and '.join(ignored)}"
            )
    cache = None if runner.observed or not outsider else runner.cache
    key = experiment_key(experiment_id)
    if cache is not None:
        cached = cache.get_table(key)
        if cached is not None:
            return cached
    table = run_experiment(experiment_id, runner)
    if outsider:
        outside.append(experiment_id)
    if cache is not None:
        cache.put_table(key, table, name=experiment_id)
    return table


def _report(
    runner: SweepRunner, outside: List[str], elapsed: float, quiet: bool
) -> None:
    if quiet:
        return
    tables = f", {len(outside)} outside the runner" if outside else ""
    print(
        f"[{runner.simulated} simulated, {runner.cache_hits} cached"
        f"{tables}, {elapsed:.1f}s]",
        file=sys.stderr,
    )


def _profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csb-figures profile",
        description=(
            "Rerun one representative point per combining scheme of a "
            "figure experiment with bus-cycle accounting attached, and "
            "print where every bus cycle went (address / data / wait / "
            "turnaround / idle)."
        ),
    )
    parser.add_argument(
        "experiments", nargs="+", help="figure ids (fig3a-i, fig4a-e, fig5a/b)"
    )
    parser.add_argument(
        "--precision", type=int, default=2, help="decimal places (default 2)"
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="print tables as GitHub-flavoured markdown",
    )
    return parser


def _profile_main(argv: List[str]) -> int:
    from repro.observability.profile import profile_table

    args = _profile_parser().parse_args(argv)
    for experiment_id in args.experiments:
        try:
            table = profile_table(experiment_id)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.markdown:
            print(table.to_markdown(precision=args.precision))
        else:
            print(table.render(precision=args.precision))
    return 0


def _lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csb-figures lint",
        description=(
            "Statically check every registered workload kernel, across "
            "its parameter sweep, against the CSB protocol rules "
            "(lock discipline, membar placement, combining windows, "
            "conditional-flush retry).  Exits 1 on any finding."
        ),
    )
    parser.add_argument(
        "targets",
        nargs="*",
        metavar="NAME",
        help=(
            "only lint targets whose name contains NAME "
            "(default: every registered target)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list target names and exit"
    )
    parser.add_argument(
        "--rules", action="store_true", help="list rule ids and exit"
    )
    return parser


def _lint_main(argv: List[str]) -> int:
    from repro.analysis import (
        all_rules,
        findings_to_json,
        iter_lint_groups,
        iter_lint_targets,
        lint_group,
        lint_source,
    )

    args = _lint_parser().parse_args(argv)
    if args.rules:
        for rule in all_rules():
            print(rule)
        return 0
    targets = [
        target
        for target in iter_lint_targets()
        if not args.targets
        or any(pattern in target.name for pattern in args.targets)
    ]
    groups = [
        group
        for group in iter_lint_groups()
        if not args.targets
        or any(pattern in group.name for pattern in args.targets)
    ]
    if args.list:
        for target in targets:
            print(target.name)
        for group in groups:
            print(f"{group.name} (group)")
        return 0
    if not targets and not groups:
        print("error: no lint targets match", file=sys.stderr)
        return 2
    findings = []
    for target in targets:
        findings.extend(
            lint_source(target.source, context=target.context, name=target.name)
        )
    for group in groups:
        findings.extend(lint_group(group.targets))
    if args.format == "json":
        print(findings_to_json(findings))
    else:
        for finding in findings:
            print(finding.render())
        print(
            f"[{len(targets)} programs and {len(groups)} group(s) linted, "
            f"{len(findings)} finding(s)]",
            file=sys.stderr,
        )
    return 1 if findings else 0


def _replay_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csb-figures replay",
        description=(
            "Stream an I/O trace through the simulator — window by "
            "window, lowered to the chosen store discipline — and report "
            "throughput, tail latency, and per-device descriptor-ring "
            "statistics.  Traces are either files in the '#csb-trace v1' "
            "format or synthetic specs generated on the fly."
        ),
    )
    parser.add_argument(
        "--trace",
        required=True,
        metavar="FILE|synth:SPEC",
        help=(
            "trace source: a '#csb-trace v1' file, or 'synth:' followed "
            "by n=,seed=,gap=[,arrival=,burst=,devices=,skew=,sizes=] "
            "(e.g. synth:n=10000,seed=7,gap=40,devices=4,skew=1.0)"
        ),
    )
    parser.add_argument(
        "--discipline",
        choices=("csb", "lock", "uncached"),
        default="csb",
        help="store discipline the trace is lowered to (default csb)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=256,
        help="records compiled per replay window (default 256)",
    )
    parser.add_argument(
        "--cores",
        type=int,
        default=1,
        help="simulated cores sharing the replay (default 1)",
    )
    parser.add_argument(
        "--devices",
        type=int,
        default=0,
        help=(
            "descriptor rings to attach (default: the synth spec's "
            "device count, or 1 for file traces)"
        ),
    )
    parser.add_argument(
        "--max-cycles",
        type=int,
        default=2_000_000_000,
        help="bus-cycle budget before the replay aborts (default 2e9)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="also write the full MetricsSnapshot as JSON to FILE",
    )
    return parser


def _replay_main(argv: List[str]) -> int:
    from repro.common.config import SystemConfig
    from repro.common.errors import ReproError
    from repro.workloads.spec import TraceWorkload
    from repro.workloads.traces import TraceReplay

    args = _replay_parser().parse_args(argv)
    try:
        workload = TraceWorkload(
            name="cli-replay",
            source=args.trace,
            discipline=args.discipline,
            window=args.window,
            devices=args.devices,
        )
        config = SystemConfig(num_cores=args.cores)
        replay = TraceReplay(workload, config, max_cycles=args.max_cycles)
        started = time.monotonic()
        result = replay.run()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started
    cpu_cycles = result.cycles * config.bus.cpu_ratio
    rate = result.replayed / elapsed if elapsed > 0 else 0.0
    report = {
        "trace": args.trace,
        "discipline": args.discipline,
        "cores": args.cores,
        "window": args.window,
        "transactions": result.replayed,
        "windows": result.windows,
        "bus_cycles": result.cycles,
        "cpu_cycles": cpu_cycles,
        "latency": result.latency,
        "latency_mean": round(result.histogram.mean, 2),
        "latency_max": result.histogram.max,
        "rings": [
            {
                "device": index,
                "enqueued": ring.enqueued,
                "drops": ring.drops,
                "high_water": ring.high_water,
                "mean_occupancy": round(ring.mean_occupancy(), 2),
            }
            for index, ring in enumerate(result.rings)
        ],
        "wall_seconds": round(elapsed, 3),
        "transactions_per_second": round(rate, 1),
    }
    if args.metrics_out and result.metrics is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(result.metrics.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[wrote {args.metrics_out}]", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(
        f"replayed {result.replayed} transactions in {result.windows} "
        f"window(s) [{args.discipline}, {args.cores} core(s)]"
    )
    print(
        f"  {result.cycles} bus cycles ({cpu_cycles} CPU cycles), "
        f"{elapsed:.2f}s wall ({rate:.0f} txn/s)"
    )
    if result.latency:
        tail = ", ".join(
            f"{label}={value}" for label, value in result.latency.items()
        )
        print(
            f"  latency [CPU cycles]: {tail}, "
            f"mean={report['latency_mean']}, max={report['latency_max']}"
        )
    for entry in report["rings"]:
        print(
            f"  ring {entry['device']}: {entry['enqueued']} enqueued, "
            f"{entry['drops']} dropped, high water {entry['high_water']}, "
            f"mean occupancy {entry['mean_occupancy']}"
        )
    return 0


def _mc_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csb-figures mc",
        description=(
            "Bounded model checker for the CSB protocol: exhaustively "
            "explore the cross-core interleavings of the litmus suite "
            "against an abstract spec of cores + shared CSB.  Exits 1 on "
            "any violation or replay divergence."
        ),
    )
    parser.add_argument(
        "tests",
        nargs="*",
        metavar="NAME",
        help=(
            "only check litmus tests whose name contains NAME "
            "(default: the whole suite)"
        ),
    )
    parser.add_argument(
        "--list", action="store_true", help="list litmus test names and exit"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the csb-mc-1 JSON report"
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=50_000,
        help="state budget per test (default 50000)",
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=80,
        help="interleaving depth budget (default 80)",
    )
    parser.add_argument(
        "--spec-mutation",
        metavar="MUTATION",
        default=None,
        help=(
            "check against a deliberately broken spec variant "
            "(CI uses this to prove the checker catches seeded bugs)"
        ),
    )
    parser.add_argument(
        "--replay",
        action="store_true",
        help=(
            "also replay every enumerated schedule of each deterministic "
            "test through the detailed simulator, comparing state "
            "op-for-op against the spec"
        ),
    )
    parser.add_argument(
        "--max-schedules",
        type=int,
        default=25,
        help="replay at most this many schedules per test (default 25)",
    )
    parser.add_argument(
        "--promote",
        metavar="DIR",
        default=None,
        help=(
            "write each violating test's counterexample as a regression-"
            "workload JSON file under DIR"
        ),
    )
    return parser


def _mc_main(argv: List[str]) -> int:
    import json as json_module

    from repro.analysis.mc import (
        MUTATIONS,
        Budget,
        litmus_tests,
        promote_violation,
        replay_test,
        results_to_json,
        write_counterexamples,
    )

    args = _mc_parser().parse_args(argv)
    tests = [
        test
        for test in litmus_tests()
        if not args.tests
        or any(pattern in test.name for pattern in args.tests)
    ]
    if args.list:
        for test in tests:
            print(test.name)
        return 0
    if not tests:
        print("error: no litmus tests match", file=sys.stderr)
        return 2
    if args.spec_mutation is not None and args.spec_mutation not in MUTATIONS:
        print(
            f"error: unknown mutation {args.spec_mutation!r} "
            f"(have: {', '.join(MUTATIONS)})",
            file=sys.stderr,
        )
        return 2
    try:
        budget = Budget(max_states=args.max_states, max_depth=args.max_depth)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = [
        test.run(budget, mutation=args.spec_mutation) for test in tests
    ]
    replays = []
    if args.replay:
        for test in tests:
            if not test.replayable:
                continue
            replays.append(
                replay_test(test, budget, max_schedules=args.max_schedules)
            )

    violating = [r for r in results if not r.ok]
    diverging = [r for r in replays if not r.ok]
    if args.promote:
        by_name = {test.name: test for test in tests}
        promoted = [
            promote_violation(
                by_name[result.test],
                result.violations[0],
                mutation=args.spec_mutation or "",
            )
            for result in violating
        ]
        for path in write_counterexamples(promoted, args.promote):
            print(f"promoted: {path}", file=sys.stderr)

    if args.json:
        report = json_module.loads(results_to_json(results, budget))
        if args.replay:
            report["replays"] = [r.to_dict() for r in replays]
        print(json_module.dumps(report, indent=2, sort_keys=True))
    else:
        for result in results:
            status = "ok" if result.ok else "VIOLATED"
            complete = "" if result.complete else " (budget truncated)"
            print(
                f"{result.test}: {status} [{result.states} states, "
                f"{result.transitions} transitions]{complete}"
            )
            for violation in result.violations:
                print(violation.render())
        for replay in replays:
            status = "ok" if replay.ok else "DIVERGED"
            print(
                f"{replay.test}: replay {status} [{replay.schedules} "
                f"schedules, {replay.steps} ops]"
            )
            for divergence in replay.divergences:
                print(f"  {divergence.render()}")
        print(
            f"[{len(results)} litmus tests checked, "
            f"{sum(len(r.violations) for r in results)} violation(s), "
            f"{len(replays)} replayed]",
            file=sys.stderr,
        )
    return 1 if violating or diverging else 0


def _campaign_parser() -> argparse.ArgumentParser:
    from repro.evaluation.service import default_state_dir

    parser = argparse.ArgumentParser(
        prog="csb-figures campaign",
        description=(
            "Run, serve, and inspect campaign manifests: content-"
            "addressed bundles of simulation jobs executed by a "
            "crash-tolerant worker pool and published over a stdlib "
            "HTTP/JSON API (see docs/campaigns.md)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--workers",
            type=int,
            default=2,
            metavar="N",
            help="worker processes in the pool (default 2)",
        )
        command.add_argument(
            "--cache-dir",
            metavar="DIR",
            default=default_cache_dir(),
            help=(
                "shared result cache directory "
                "(default: $CSB_CACHE_DIR or ~/.cache/csb-figures)"
            ),
        )
        command.add_argument(
            "--no-cache",
            action="store_true",
            help="neither read nor write the result cache",
        )
        command.add_argument(
            "--state-dir",
            metavar="DIR",
            default=default_state_dir(),
            help=(
                "campaign store directory "
                "(default: $CSB_STATE_DIR or ~/.local/state/csb-campaigns)"
            ),
        )

    run = sub.add_parser(
        "run",
        help="execute one manifest through the worker pool",
        description=(
            "Execute a campaign manifest (a JSON file, or '-' for stdin) "
            "through the worker pool, store its csb-campaign-1 results "
            "document under the state directory, and print it.  SIGTERM "
            "drains gracefully: in-flight jobs finish, the rest are "
            "reported 'drained'."
        ),
    )
    run.add_argument(
        "manifest", metavar="FILE", help="manifest JSON path, or '-'"
    )
    common(run)
    run.add_argument(
        "--max-requeues",
        type=int,
        default=None,
        metavar="N",
        help="crash-requeue budget per job (default 2)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve the campaign HTTP/JSON API",
        description=(
            "Serve GET /campaigns, GET /campaigns/<key>, "
            "GET /campaigns/<key>/results and POST /campaigns, executing "
            "queued campaigns in the background.  SIGTERM/SIGINT drain "
            "and shut down."
        ),
    )
    common(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8731, help="bind port (default 8731)"
    )

    status = sub.add_parser(
        "status",
        help="inspect stored campaigns",
        description=(
            "With no key: list every stored campaign.  With a key: print "
            "that campaign's status document as JSON."
        ),
    )
    status.add_argument(
        "key", nargs="?", default=None, help="campaign key (64 hex chars)"
    )
    common(status)

    sub.add_parser(
        "example",
        help="print an example campaign manifest",
        description=(
            "Print a small ready-to-run manifest (program-bandwidth and "
            "trace-replay jobs) to feed 'campaign run' or POST /campaigns."
        ),
    )
    return parser


def _campaign_main(argv: List[str]) -> int:
    import signal
    import threading

    from repro.common.errors import ReproError
    from repro.evaluation.campaign import (
        CampaignManifest,
        example_manifest,
        results_to_json,
    )
    from repro.evaluation.service import (
        CampaignService,
        CampaignStore,
        serve,
    )

    args = _campaign_parser().parse_args(argv)
    if args.command == "example":
        print(example_manifest().to_json(), end="")
        return 0
    cache_dir = None if args.no_cache else args.cache_dir
    log = lambda message: print(message, file=sys.stderr)  # noqa: E731
    if args.command == "run":
        try:
            if args.manifest == "-":
                text = sys.stdin.read()
            else:
                with open(args.manifest, "r", encoding="utf-8") as handle:
                    text = handle.read()
            manifest = CampaignManifest.from_json(text)
            store = CampaignStore(args.state_dir)
            key = store.enqueue(manifest)
        except (OSError, ConfigError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        drain = threading.Event()
        signal.signal(signal.SIGTERM, lambda s, f: drain.set())
        service = CampaignService(
            store,
            workers=args.workers,
            cache_dir=cache_dir,
            log=log,
            **(
                {"max_requeues": args.max_requeues}
                if args.max_requeues is not None
                else {}
            ),
        )
        service.drain = drain
        try:
            body = store.results_bytes(key)
            if body is None:
                service.run_one(key)
                body = store.results_bytes(key)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        status = store.status(key) or {}
        if body is None:
            print(
                f"campaign {key}: {status.get('state', 'unknown')}",
                file=sys.stderr,
            )
            return 1
        sys.stdout.write(body.decode("utf-8"))
        return 0
    store = CampaignStore(args.state_dir)
    if args.command == "serve":
        service = CampaignService(
            store, workers=args.workers, cache_dir=cache_dir, log=log
        )
        return serve(service, host=args.host, port=args.port)
    # status
    if args.key is None:
        documents = [store.describe(key) for key in store.keys()]
        print(
            json.dumps(
                {"campaigns": [d for d in documents if d is not None]},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    try:
        description = store.describe(args.key)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if description is None:
        print(f"error: no campaign {args.key}", file=sys.stderr)
        return 2
    print(json.dumps(description, indent=2, sort_keys=True))
    return 0


#: Subcommands, each parsing its own arguments; anything else is a
#: figure run.
_SUBCOMMANDS = {
    "profile": _profile_main,
    "lint": _lint_main,
    "mc": _mc_main,
    "replay": _replay_main,
    "campaign": _campaign_main,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    args = _parser().parse_args(argv)
    ids = experiment_ids()
    if args.list:
        for experiment_id in ids:
            print(experiment_id)
        return 0
    chosen = ids if args.all else args.experiments
    if not chosen:
        _parser().print_usage()
        print("error: give experiment ids, --all, or --list", file=sys.stderr)
        return 2
    unknown = [e for e in chosen if e not in ids]
    if unknown:
        print(
            f"error: unknown experiment(s) {', '.join(unknown)}; "
            "see --list",
            file=sys.stderr,
        )
        return 2
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    trace_stream = None
    if args.trace_events:
        trace_stream = open(args.trace_events, "w", encoding="utf-8")
    try:
        runner = _make_runner(args, trace_stream=trace_stream)
        outside: List[str] = []
        started = time.monotonic()
        if args.check:
            status = _check_against(chosen, args.check, runner, outside)
            _report(runner, outside, time.monotonic() - started, args.quiet)
            return status
        for experiment_id in chosen:
            if not args.quiet:
                print(f"[{experiment_id}]", file=sys.stderr)
            table = _resolve_table(experiment_id, runner, outside)
            if args.markdown:
                print(table.to_markdown(precision=args.precision))
            else:
                print(table.render(precision=args.precision))
            if args.out:
                path = os.path.join(args.out, f"{experiment_id}.csv")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(table.to_csv())
                print(f"[wrote {path}]\n")
        if args.metrics_out:
            document = {
                name: snapshot.to_dict()
                for name, snapshot in sorted(runner.metrics.items())
            }
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
            if not args.quiet:
                print(f"[wrote {args.metrics_out}]", file=sys.stderr)
        _report(runner, outside, time.monotonic() - started, args.quiet)
        return 0
    except ConfigError as exc:
        # Flags valid alone can still merge into an invalid per-job
        # config (a --mem line size against the hierarchy's).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if trace_stream is not None:
            trace_stream.close()


def _diff_lines(actual: str, expected: str) -> List[str]:
    """Human-readable description of the first divergence between two CSVs,
    including length differences ``zip`` would silently swallow."""
    got_lines = actual.splitlines()
    want_lines = expected.splitlines()
    detail: List[str] = []
    if len(got_lines) != len(want_lines):
        detail.append(
            f"  expected {len(want_lines)} lines, got {len(got_lines)}"
        )
    for row, (got, want) in enumerate(zip(got_lines, want_lines), start=1):
        if got != want:
            detail.append(f"  first differing line ({row}):")
            detail.append(f"    expected: {want}")
            detail.append(f"    actual:   {got}")
            return detail
    # All shared lines agree, so one side has trailing extra lines.
    if len(got_lines) > len(want_lines):
        extra = got_lines[len(want_lines)]
        detail.append(f"  first extra line ({len(want_lines) + 1}): {extra}")
    elif len(want_lines) > len(got_lines):
        missing = want_lines[len(got_lines)]
        detail.append(
            f"  first missing line ({len(got_lines) + 1}): {missing}"
        )
    return detail


def _check_against(
    chosen: List[str], golden_dir: str, runner: SweepRunner, outside: List[str]
) -> int:
    """Golden-file regression: simulations are deterministic, so every
    regenerated table must match its stored CSV byte for byte."""
    failures = 0
    for experiment_id in chosen:
        path = os.path.join(golden_dir, f"{experiment_id}.csv")
        if not os.path.exists(path):
            print(f"{experiment_id}: MISSING golden file {path}")
            failures += 1
            continue
        with open(path, "r", encoding="utf-8") as handle:
            expected = handle.read()
        actual = _resolve_table(experiment_id, runner, outside).to_csv()
        if actual == expected:
            print(f"{experiment_id}: OK")
        else:
            print(f"{experiment_id}: MISMATCH against {path}")
            for line in _diff_lines(actual, expected):
                print(line)
            failures += 1
    if failures:
        print(f"{failures} experiment(s) diverged", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
