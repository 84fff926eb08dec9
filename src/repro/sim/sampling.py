"""Sampled cycle-accurate simulation: the tiered execution controller.

SMARTS-style sampling (Wunderlich et al., ISCA 2003, adapted to this
simulator's scale): execution alternates between three phases driven by
:class:`~repro.common.config.SamplingConfig` —

1. **detailed warmup** (``warmup_cycles``): full cycle-accurate execution
   whose measurements are discarded; it re-warms the timing-plane state
   (caches, TLB, bus pipelines, uncached buffer occupancy) that the
   functional tier does not model.
2. **detailed measurement** (``window_cycles``): full cycle-accurate
   execution recorded as one :class:`WindowSample`.
3. **functional fast-forward** (``ff_instructions``): the
   :class:`~repro.sim.fastforward.FastForwarder` advances architectural
   state only.  The cycle clock freezes, so all detailed phases form one
   contiguous span in simulated time and cumulative rate metrics (the
   paper's bytes-per-bus-cycle) remain directly meaningful.

Between a measurement window and a fast-forward phase the pipeline is
drained and all I/O completes — the architectural hand-off point the
fast-forward tier requires.

Per-window samples aggregate into :class:`Estimate` values (mean plus a
normal-approximation confidence interval; the z-table below covers the
confidence levels :data:`~repro.common.config.CONFIDENCE_LEVELS` allows,
so no SciPy dependency).  Interval metrics (Figure 5's lock-handoff span)
are *reconstructed*: marks retired during fast-forward know only how many
instructions were skipped, so :meth:`SamplingReport.estimate_span` adds
``skipped_instructions x estimated CPI`` to the raw (detailed-only) span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.config import SamplingConfig
from repro.common.errors import ConfigError, DeadlockError
from repro.common.serialize import Codec, to_document
from repro.sim.fastforward import FastForwarder

#: Two-sided normal quantiles for the supported confidence levels.
Z_SCORES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


@dataclass(frozen=True)
class WindowSample(Codec):
    """One detailed measurement window."""

    index: int
    start_cycle: int
    cycles: int
    instructions: int
    store_bytes: int


@dataclass(frozen=True)
class Estimate(Codec):
    """A sampled mean with its confidence-interval half-width."""

    mean: float
    half_width: float
    samples: int
    confidence: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width


def _estimate(samples: List[float], confidence: float) -> Estimate:
    n = len(samples)
    if n == 0:
        return Estimate(0.0, 0.0, 0, confidence)
    mean = sum(samples) / n
    if n < 2:
        return Estimate(mean, 0.0, n, confidence)
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    half = Z_SCORES[confidence] * (variance**0.5) / (n**0.5)
    return Estimate(mean, half, n, confidence)


@dataclass(frozen=True)
class SamplingReport:
    """What a sampled run measured, and how to extrapolate from it."""

    config: SamplingConfig
    windows: Tuple[WindowSample, ...]
    #: Instructions executed by the functional tier (not simulated in detail).
    ff_instructions: int
    #: Mark label -> cumulative fast-forward instruction count at retire.
    ff_marks: Dict[str, int]
    #: Detailed CPU cycles actually simulated (the clock freezes during
    #: fast-forward, so this is the final ``system.cycle``).
    detailed_cycles: int
    #: Instructions retired by the detailed tier.
    detailed_instructions: int
    cpu_ratio: int

    @property
    def cpi(self) -> Estimate:
        """Cycles per instruction over the measurement windows."""
        samples = [
            w.cycles / w.instructions for w in self.windows if w.instructions
        ]
        return _estimate(samples, self.config.confidence)

    @property
    def store_bandwidth(self) -> Estimate:
        """Useful store bytes per *bus* cycle, per measurement window.

        Windows with no uncached-store traffic (the kernel was in a compute
        phase) are excluded — this estimates the streaming-phase rate the
        paper's Figures 3/4 report, not a whole-program average.
        """
        samples = [
            w.store_bytes * self.cpu_ratio / w.cycles
            for w in self.windows
            if w.store_bytes and w.cycles
        ]
        return _estimate(samples, self.config.confidence)

    def estimate_span(
        self, raw_span: float, start_label: str, end_label: str
    ) -> float:
        """Reconstruct a mark-to-mark CPU-cycle span.

        ``raw_span`` is the detailed-tier span (mark cycles freeze during
        fast-forward, so it omits skipped work); the instructions
        fast-forwarded between the two marks are charged at the sampled
        CPI.  Falls back to the raw span when nothing was skipped between
        the marks or no window produced a CPI sample.
        """
        ff_between = self.ff_marks.get(end_label, 0) - self.ff_marks.get(
            start_label, 0
        )
        if ff_between <= 0:
            return float(raw_span)
        cpi = self.cpi
        if cpi.samples == 0:
            return float(raw_span)
        return raw_span + ff_between * cpi.mean

    def span_half_width(self, start_label: str, end_label: str) -> float:
        """Confidence half-width of :meth:`estimate_span`."""
        ff_between = self.ff_marks.get(end_label, 0) - self.ff_marks.get(
            start_label, 0
        )
        if ff_between <= 0:
            return 0.0
        return ff_between * self.cpi.half_width

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": to_document(self.config),
            "windows": [w.to_dict() for w in self.windows],
            "ff_instructions": self.ff_instructions,
            "ff_marks": dict(sorted(self.ff_marks.items())),
            "detailed_cycles": self.detailed_cycles,
            "detailed_instructions": self.detailed_instructions,
            "cpi": self.cpi.to_dict(),
            "store_bandwidth": self.store_bandwidth.to_dict(),
        }


def _drain(system, max_cycles: int) -> None:
    """Step the detailed tier until the hand-off invariants hold.

    Re-requests the drain every cycle: a halt mid-drain installs the next
    runnable process (clearing the core's drain flag), and that fresh
    context must not dispatch either.
    """
    core = system.core
    quiescent = system._quiescent
    while not (core.drained and quiescent()):
        if system.cycle >= max_cycles:
            raise DeadlockError(
                f"pipeline drain exceeded max_cycles={max_cycles}",
                cycle=system.cycle,
                snapshot=core.machine_snapshot(),
            )
        core.request_drain()
        system.step()


def run_sampled(system, max_cycles: int = 5_000_000):
    """Run ``system`` to completion under the tiered execution engine.

    Returns the system's :class:`~repro.common.stats.StatsCollector` (like
    ``System.run``) and attaches a :class:`SamplingReport` as
    ``system.sampling_report``.  ``max_cycles`` bounds *detailed* cycles;
    fast-forwarded instructions do not advance the clock.
    """
    config = system.config.sampling
    if not config.enabled:
        raise ConfigError("run_sampled requires sampling.enabled")
    if system.devices:
        raise ConfigError("sampled execution does not support attached devices")
    ff = FastForwarder(system)
    retired = system.stats.counter("core.retired")
    store_window = system.stats.uncached_store_window
    stats_marks = system.stats.marks
    ff_marks = ff.ff_marks
    last_seen: Dict[str, int] = {}
    windows: List[WindowSample] = []

    def sync_marks(record: bool) -> None:
        # Marks retired by a *detailed* phase happened at the current
        # fast-forward offset; record that so estimate_span can tell which
        # portion of a span was skipped.  After a fast-forward phase the
        # interpreter has already recorded exact offsets, so only refresh
        # the change detector.
        for label, cycle in stats_marks.items():
            if last_seen.get(label) != cycle:
                last_seen[label] = cycle
                if record:
                    ff_marks[label] = ff.instructions_executed

    index = 0
    while not system.finished:
        system.advance(
            until=system.cycle + config.warmup_cycles, max_cycles=max_cycles
        )
        sync_marks(True)
        if system.finished:
            break
        start_cycle = system.cycle
        instructions_before = retired.value
        bytes_before = store_window.total_bytes
        ran = system.advance(
            until=start_cycle + config.window_cycles, max_cycles=max_cycles
        )
        sync_marks(True)
        windows.append(
            WindowSample(
                index,
                start_cycle,
                ran,
                retired.value - instructions_before,
                store_window.total_bytes - bytes_before,
            )
        )
        index += 1
        if system.finished:
            break
        _drain(system, max_cycles)
        sync_marks(True)
        if system.finished:
            break
        ff.fast_forward(config.ff_instructions)
        sync_marks(False)
    report = SamplingReport(
        config=config,
        windows=tuple(windows),
        ff_instructions=ff.instructions_executed,
        ff_marks=dict(ff_marks),
        detailed_cycles=system.cycle,
        detailed_instructions=retired.value,
        cpu_ratio=system.config.bus.cpu_ratio,
    )
    system.sampling_report = report
    return system.stats
