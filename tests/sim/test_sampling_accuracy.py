"""Sampled-estimate accuracy and fast-forward throughput.

The tiered engine's pitch is that a sampled run recovers the paper's
metrics (Figure 3/4 store bandwidth, Figure 5 mark-to-mark spans) within
a few percent of the detailed golden value at a fraction of the detailed
work.  These tests pin that claim on representative points:

* store-bandwidth estimates (both the cumulative value and the per-window
  confidence-interval estimate) within 5% of the detailed run;
* span reconstruction (raw detailed span + skipped-instructions x sampled
  CPI) within 5% on a long uniform marked loop;
* the functional tier does a tenth of the detailed core's work per
  retired instruction, or less (the speedup that makes sampling
  worthwhile at all), counted in function calls so the check does not
  drift with the host's speed.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Tuple

import pytest

from repro.common.config import SamplingConfig
from repro.isa.assembler import assemble
from repro.sim.fastforward import FastForwarder
from repro.sim.sampling import Z_SCORES, run_sampled
from repro.sim.system import System
from repro.workloads import store_kernel_csb, store_kernel_uncached

from tests.conftest import make_config

MAX_CYCLES = 2_000_000

TOLERANCE = 0.05


def _detailed(source):
    system = System(make_config())
    system.add_process(assemble(source, name="golden"))
    system.run(max_cycles=MAX_CYCLES)
    return system


def _sampled(source, sampling):
    system = System(make_config(sampling=sampling))
    system.add_process(assemble(source, name="sampled"))
    run_sampled(system, max_cycles=MAX_CYCLES)
    return system


def _within(value, golden, tolerance=TOLERANCE):
    assert golden != 0
    assert abs(value - golden) / abs(golden) <= tolerance, (value, golden)


class TestBandwidthAccuracy:
    """Figure 3/4 metric: useful store bytes per bus cycle."""

    @pytest.mark.parametrize(
        "kernel",
        [store_kernel_csb(65536, 64), store_kernel_uncached(32768)],
        ids=["csb-64KiB", "uncached-32KiB"],
    )
    def test_sampled_bandwidth_within_5pct(self, kernel):
        golden = _detailed(kernel).store_bandwidth
        system = _sampled(kernel, SamplingConfig(enabled=True))
        report = system.sampling_report
        assert len(report.windows) >= 2
        # The cumulative metric stays valid because the clock freezes
        # during fast-forward phases.
        _within(system.store_bandwidth, golden)
        # The per-window estimate comes with a confidence interval.
        estimate = report.store_bandwidth
        _within(estimate.mean, golden)
        assert estimate.half_width >= 0.0
        assert estimate.low <= estimate.mean <= estimate.high

    def test_sampled_run_simulates_fewer_detailed_cycles(self):
        kernel = store_kernel_csb(65536, 64)
        golden = _detailed(kernel)
        sampled = _sampled(kernel, SamplingConfig(enabled=True))
        report = sampled.sampling_report
        assert report.detailed_cycles < golden.cycle
        assert report.ff_instructions > 0
        total = report.detailed_instructions + report.ff_instructions
        assert total == golden.scheduler.processes[0].retired_instructions


SPAN_KERNEL = """
        mark    span_start
        set     4000, %o0
        set     0, %o1
loop:   add     %o1, 3, %o1
        xor     %o1, 5, %o1
        sub     %o0, 1, %o0
        brnz    %o0, loop
        mark    span_end
        halt
"""


class TestSpanReconstruction:
    """Figure 5 metric: CPU cycles between two marks."""

    def test_sampled_span_within_5pct(self):
        golden = _detailed(SPAN_KERNEL).span("span_start", "span_end")
        sampling = SamplingConfig(
            enabled=True, ff_instructions=800, warmup_cycles=600,
            window_cycles=1200,
        )
        system = _sampled(SPAN_KERNEL, sampling)
        report = system.sampling_report
        raw = system.span("span_start", "span_end")
        assert raw < golden  # the raw span really omits skipped work
        estimate = report.estimate_span(raw, "span_start", "span_end")
        _within(estimate, golden)
        assert report.span_half_width("span_start", "span_end") >= 0.0

    def test_span_without_skipped_work_is_exact(self):
        golden = _detailed(SPAN_KERNEL).span("span_start", "span_end")
        # Windows larger than the program: the sampled run degenerates to
        # a fully detailed run and the span must be bit-exact.
        sampling = SamplingConfig(
            enabled=True, ff_instructions=1, warmup_cycles=10,
            window_cycles=1_000_000,
        )
        system = _sampled(SPAN_KERNEL, sampling)
        raw = system.span("span_start", "span_end")
        assert raw == golden
        assert (
            system.sampling_report.estimate_span(raw, "span_start", "span_end")
            == golden
        )

    def test_api_simulate_reconstructs_span(self):
        from repro.api import simulate

        golden = simulate(make_config(), SPAN_KERNEL).span(
            "span_start", "span_end"
        )
        sampling = SamplingConfig(
            enabled=True, ff_instructions=800, warmup_cycles=600,
            window_cycles=1200,
        )
        result = simulate(make_config(sampling=sampling), SPAN_KERNEL)
        assert result.sampling is not None
        _within(result.span("span_start", "span_end"), golden)


SPEED_KERNEL = """
        set     800, %o0
        set     0, %o1
loop:   add     %o1, 3, %o1
        sub     %o1, 1, %o1
        mulx    %o1, 1, %o1
        sub     %o0, 1, %o0
        brnz    %o0, loop
        halt
"""


def _calls(run: Callable[[], Any]) -> Tuple[int, Any]:
    """The function calls ``run()`` makes, Python and builtin alike
    (``sys.setprofile`` call and c_call events), and its result: a count
    of work that, unlike a host rate, repeats exactly from run to run."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return calls, result


class TestThroughput:
    def test_fast_forward_at_least_10x_detailed(self):
        # Work per retired instruction, not instructions per host second:
        # two host rates taken in one run spread with the host's load.
        detailed = System(make_config())
        detailed.add_process(assemble(SPEED_KERNEL, name="det"))
        detailed_calls, _ = _calls(
            lambda: detailed.run(max_cycles=MAX_CYCLES)
        )
        instructions = detailed.scheduler.processes[0].retired_instructions

        ff_system = System(make_config())
        ff_system.add_process(assemble(SPEED_KERNEL, name="ff"))
        ff_system.step()
        ff = FastForwarder(ff_system)
        ff_calls, executed = _calls(lambda: ff.fast_forward(10**9))

        assert instructions == 2 + 800 * 5 + 1  # sets, loop trips, halt
        assert executed == instructions  # whole program, both tiers
        assert ff_system.scheduler.processes[0].halted
        detailed_work = detailed_calls / instructions
        ff_work = ff_calls / executed
        assert detailed_work >= 10 * ff_work, (detailed_work, ff_work)


class TestEstimateMath:
    def test_z_table_matches_confidence_levels(self):
        from repro.common.config import CONFIDENCE_LEVELS

        assert set(Z_SCORES) == set(CONFIDENCE_LEVELS)

    def test_single_sample_has_zero_half_width(self):
        from repro.sim.sampling import _estimate

        estimate = _estimate([4.0], 0.95)
        assert estimate.mean == 4.0
        assert estimate.half_width == 0.0

    def test_interval_scales_with_z(self):
        from repro.sim.sampling import _estimate

        samples = [1.0, 2.0, 3.0, 4.0]
        narrow = _estimate(samples, 0.90)
        wide = _estimate(samples, 0.99)
        assert narrow.mean == wide.mean
        assert narrow.half_width < wide.half_width

    def test_report_serializes(self):
        kernel = store_kernel_csb(16384, 64)
        sampling = SamplingConfig(
            enabled=True, ff_instructions=400, warmup_cycles=300,
            window_cycles=600,
        )
        report = _sampled(kernel, sampling).sampling_report
        payload = report.to_dict()
        assert payload["config"]["enabled"] is True
        assert payload["ff_instructions"] == report.ff_instructions
        assert len(payload["windows"]) == len(report.windows)
