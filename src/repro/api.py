"""The stable public facade: one import, three entry points.

Everything else in the package is implementation that may move between
releases; this module is the supported surface:

* :func:`simulate` — run one kernel on one configuration and get a
  :class:`RunResult` (stats, metrics, the finished system).
* :func:`experiments` — the ids of every figure/table the harness can
  regenerate.
* :func:`run_experiment` — regenerate one of them as a
  :class:`~repro.common.tables.Table`.

Example::

    from repro import simulate, SystemConfig
    from repro.workloads import store_kernel_csb

    result = simulate(SystemConfig(), store_kernel_csb(256, line_size=64))
    print(result.store_bandwidth, result.metrics.counters["csb.flushes"])

Both entry points take **one** configuration argument: a full
:class:`~repro.common.config.SystemConfig`, or a plain mapping of
per-section overrides merged over the defaults::

    result = simulate({"mem": {"enabled": True, "mshrs": 8}}, kernel)
    table = run_experiment("fig5a", {"bus": {"cpu_ratio": 4}})

Observability plugs in through ``observers``::

    from repro.observability import RingBufferSink

    ring = RingBufferSink()
    result = simulate(config, kernel, observers=[ring])
    print(ring.counts())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.common.serialize import apply_overrides
from repro.common.stats import StatsCollector
from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.observability.metrics import MetricsSnapshot
from repro.observability.sinks import EventSink
from repro.sim.system import System

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.common.tables import Table
    from repro.evaluation.runner import SweepRunner

#: What the unified entry points accept as "the configuration": a full
#: SystemConfig, a mapping of per-section overrides, or None (defaults).
ConfigLike = Union[SystemConfig, Mapping, None]


def resolve_config(config: ConfigLike) -> SystemConfig:
    """Normalize a :data:`ConfigLike` into a validated SystemConfig.

    A mapping is treated as partial overrides merged over the defaults
    (section -> {field: value}, exactly the shape
    :func:`~repro.common.serialize.config_to_dict` emits).
    """
    if config is None:
        return SystemConfig()
    if isinstance(config, SystemConfig):
        return config
    if isinstance(config, Mapping):
        return apply_overrides(SystemConfig(), config)
    raise ConfigError(
        f"expected a SystemConfig, an overrides mapping, or None; "
        f"got {type(config).__name__}"
    )


@dataclass(frozen=True)
class RunResult:
    """What :func:`simulate` hands back for one finished run."""

    system: System
    stats: StatsCollector
    metrics: MetricsSnapshot
    #: The sampled-execution report, or None for a fully detailed run.
    sampling: "Optional[object]" = None
    #: Human-readable reason the run fell back from sampled to detailed
    #: execution (None when no fallback happened).  Sweeps record the
    #: same information in ``SweepRunner.sampling_fallbacks``.
    sampling_fallback: Optional[str] = None

    @property
    def store_bandwidth(self) -> float:
        """Bytes per bus cycle over the uncached-store window (the
        paper's Figure 3/4 metric)."""
        return self.system.store_bandwidth

    def span(self, start_label: str, end_label: str) -> float:
        """CPU cycles between two ``mark`` instructions (Figure 5).

        For a sampled run the span is reconstructed (skipped instructions
        charged at the sampled CPI) and may be fractional.
        """
        raw = self.system.span(start_label, end_label)
        if self.sampling is not None:
            return self.sampling.estimate_span(raw, start_label, end_label)
        return raw


def simulate(
    config: ConfigLike = None,
    program: "Program | str | None" = None,
    *,
    programs: Sequence["Program | str"] = (),
    observers: Iterable[EventSink] = (),
    warm: Tuple[int, ...] = (),
    max_cycles: int = 5_000_000,
) -> RunResult:
    """Build a system, run kernel(s) to completion, return the result.

    ``config`` is a :class:`~repro.common.config.SystemConfig`, a mapping
    of per-section overrides (``{"mem": {"enabled": True}}``), or None
    for the defaults.  ``program`` (or each element of ``programs`` for
    multi-process runs) is an assembled
    :class:`~repro.isa.program.Program` or kernel source text, assembled
    on the fly.  ``observers`` are event sinks attached before the run;
    ``warm`` lists addresses pre-loaded into the caches — the hierarchy
    *and* the data cache when one is configured (e.g. a lock variable).

    When an *overrides mapping* requests sampling but the rest of the
    overrides make the run ineligible (SMP, preemptive quanta, faults,
    the data cache), the run falls back to detailed execution and the
    reason lands in :attr:`RunResult.sampling_fallback`.  A full
    SystemConfig never falls back — it validates at construction.
    """
    fallback: Optional[str] = None
    try:
        resolved = resolve_config(config)
    except ConfigError as error:
        if not (isinstance(config, Mapping) and "sampling" in config):
            raise
        # Sampling was an overlay on an otherwise-valid request: drop it,
        # run detailed, and report why (mirrors SweepRunner's fallback).
        stripped = {k: v for k, v in config.items() if k != "sampling"}
        resolved = resolve_config(stripped)
        fallback = str(error)
    system = System(resolved)
    for sink in observers:
        system.attach_observer(sink)
    sources = list(programs)
    if program is not None:
        sources.insert(0, program)
    for source in sources:
        if isinstance(source, str):
            source = assemble(source)
        system.add_process(source)
    for address in warm:
        system.warm(address)
    if system.config.sampling.enabled:
        from repro.sim.sampling import run_sampled

        stats = run_sampled(system, max_cycles=max_cycles)
    else:
        stats = system.run(max_cycles=max_cycles)
    return RunResult(
        system=system,
        stats=stats,
        metrics=MetricsSnapshot.from_system(system),
        sampling=system.sampling_report,
        sampling_fallback=fallback,
    )


def experiments() -> List[str]:
    """Every experiment id :func:`run_experiment` accepts."""
    from repro.evaluation.experiments import experiment_ids

    return experiment_ids()


def run_campaign(manifest, *, workers: int = 0, cache_dir: Optional[str] = None):
    """Execute a :class:`~repro.evaluation.campaign.CampaignManifest` and
    return its ``csb-campaign-1`` results document (a plain dict).

    ``workers=0`` (the default) runs serially in-process; ``workers>=1``
    shards the manifest's jobs across that many worker processes with
    crash-requeue — the two paths produce byte-identical documents.
    ``cache_dir`` names a shared result-cache directory (pooled runs
    only; the serial path honours the runner's own cache).  See
    docs/campaigns.md.
    """
    from repro.evaluation.campaign import run_campaign as _run_serial
    from repro.evaluation.service import run_campaign_pooled

    if workers < 0:
        raise ConfigError("workers must be >= 0")
    if workers == 0:
        return _run_serial(manifest)
    return run_campaign_pooled(manifest, workers=workers, cache_dir=cache_dir)


def run_experiment(
    experiment_id: str,
    config: ConfigLike = None,
    *,
    runner: "Optional[SweepRunner]" = None,
) -> "Table":
    """Regenerate one figure/table (see :func:`experiments` for ids).

    ``config`` takes the same shapes as :func:`simulate`: a mapping of
    per-section overrides (``{"mem": {"enabled": True}}``) merged over
    every simulation point's own configuration, a full SystemConfig
    (which pins *every* section — it collapses a sweep's varying
    dimension, so overrides mappings are usually what you want), or
    None.  Overrides ride on the runner, so they reach every simulation
    point of every experiment; a caller's runner gets its own overrides
    back when the experiment returns.
    """
    from repro.common.serialize import config_to_dict
    from repro.evaluation.experiments import run_experiment as _run
    from repro.evaluation.runner import default_runner

    if config is None:
        return _run(experiment_id, runner)
    if isinstance(config, SystemConfig):
        overrides = config_to_dict(config)
    elif isinstance(config, Mapping):
        overrides = dict(config)
    else:
        raise ConfigError(
            f"expected a SystemConfig, an overrides mapping, or None; "
            f"got {type(config).__name__}"
        )
    # Fail fast on unknown sections/fields before any simulation runs.
    apply_overrides(SystemConfig(), overrides)
    if runner is None:
        runner = default_runner()
    previous = runner.overrides
    runner.overrides = overrides
    try:
        return _run(experiment_id, runner)
    finally:
        runner.overrides = previous
