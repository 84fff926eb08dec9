"""Every simulated counter of a fixed set of runs, pinned across commits.

Each run below is one point of the paper's figures or of an extension
study: one Figure 3/4 bandwidth point per scheme row (the R10000 and
PowerPC 620 policies included), Figure 5(a) with the lock and with the
CSB, the four-core contention system with each mechanism, a run with
bus faults and spurious CSB aborts, a D-cache run and a two-core
streamed trace replay under each discipline (the uncached and lock
replays stall one core on its uncached buffer while the other's
transactions go by).  For each, the golden file holds the whole
``StatsCollector.as_dict()`` in order, the order the counters were minted
in (a counter minted before its first bump shows up in both), the TLB's
hits and misses, the marks and the final cycle.  A change that only
speeds the simulator up leaves every value equal.

Regenerate the golden file only for a change that moves a simulated
result on purpose (and bumps ``SIM_VERSION``)::

    PYTHONPATH=src python -m tests.integration.test_counter_pins
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.common.config import MemoryConfig, SystemConfig
from repro.devices.sink import BurstSink
from repro.evaluation.bandwidth import bandwidth_job
from repro.evaluation.latency import latency_job
from repro.evaluation.panels import FIG3_PANELS, FIG4_PANELS
from repro.evaluation.policy_comparison import policy_job
from repro.evaluation.runner import run_system
from repro.evaluation.smp_contention import smp_contention_system
from repro.faults.config import FaultConfig
from repro.isa.assembler import assemble
from repro.memory.layout import IO_COMBINING_BASE, IO_UNCACHED_BASE, PageAttr, Region
from repro.sim.system import System
from repro.workloads.contention import contending_csb_kernel
from repro.workloads.spec import TraceWorkload
from repro.workloads.storebw import store_kernel_uncached
from repro.workloads.traces.replay import TraceReplay

from tests.conftest import make_config

GOLDEN = Path(__file__).with_name("counter_pins.json")


def _pins(system: System) -> dict:
    stats = system.stats
    return {
        "cycle": system.cycle,
        "counters": [[name, value] for name, value in stats.as_dict().items()],
        "minted": [counter.name for counter in stats.live_counters()],
        "tlb": [system.tlb.hits, system.tlb.misses],
        "marks": [[label, cycle] for label, cycle in stats.marks.items()],
    }


def _job(job) -> Callable[[], System]:
    return lambda: run_system(job)


def _contention(mechanism: str) -> Callable[[], System]:
    def run() -> System:
        system = smp_contention_system(mechanism, 4)
        system.run(max_cycles=50_000_000)
        return system

    return run


def _faulted() -> System:
    faults = FaultConfig(
        seed=11,
        bus_nack_rate=0.2,
        bus_stall_rate=0.2,
        device_timeout_rate=0.2,
        csb_spurious_abort_rate=0.3,
    )
    system = System(make_config(faults=faults))
    for base, attr in (
        (IO_UNCACHED_BASE, PageAttr.UNCACHED),
        (IO_COMBINING_BASE, PageAttr.UNCACHED_COMBINING),
    ):
        system.attach_device(BurstSink(Region(base, 8192, attr, f"sink{base:x}")))
    system.add_process(assemble(store_kernel_uncached(256)))
    system.add_process(
        assemble(contending_csb_kernel(6, IO_COMBINING_BASE, signature=0x1_0000))
    )
    system.run(max_cycles=5_000_000)
    return system


def _dcache() -> System:
    """Cached loads that miss past the MSHR file, cached stores and
    uncached stores in one program."""
    body = []
    for i in range(10):
        body.append(f"ldx [%o0+{i * 64}], %l{i % 8}")
        body.append(f"stx %l1, [%o0+{i * 64 + 8192}]")
        body.append(f"stx %l0, [%o1+{i * 8}]")
    setup = ["set 0x8000, %o0", f"set {IO_UNCACHED_BASE}, %o1", "mark 1"]
    source = "\n".join([*setup, *body, "mark 2", "membar", "halt"])
    system = System(SystemConfig(mem=MemoryConfig(enabled=True, mshrs=2)))
    system.add_process(assemble(source))
    system.run(max_cycles=5_000_000)
    return system


def _replay(discipline: str) -> Callable[[], System]:
    def run() -> System:
        workload = TraceWorkload(
            name="pins",
            source="synth:n=60,seed=3,gap=20,devices=4,skew=1.0,sizes=8:3/64:1",
            discipline=discipline,
        )
        replay = TraceReplay(workload, SystemConfig(num_cores=2), 50_000_000)
        replay.run()
        return replay.system

    return run


RUNS: Dict[str, Callable[[], System]] = {
    **{
        f"fig3e-{scheme}-256": _job(bandwidth_job(FIG3_PANELS["e"], scheme, 256))
        for scheme in ("none", "combine16", "combine32", "combine64", "csb")
    },
    **{
        f"fig4a-{scheme}-256": _job(bandwidth_job(FIG4_PANELS["a"], scheme, 256))
        for scheme in ("none", "combine64", "csb")
    },
    **{
        f"policy-{scheme}-256-{order}": _job(policy_job(scheme, 256, shuffled))
        for scheme in ("r10000", "ppc620")
        for order, shuffled in (("sequential", False), ("shuffled", True))
    },
    "fig5a-lock-8": _job(latency_job("none", 8, lock_hits_l1=True)),
    "fig5a-csb-8": _job(latency_job("csb", 8, lock_hits_l1=True)),
    "smp-contention-lock-4": _contention("lock"),
    "smp-contention-csb-4": _contention("csb"),
    "faulted": _faulted,
    "dcache": _dcache,
    **{
        f"replay-2core-{discipline}": _replay(discipline)
        for discipline in ("uncached", "lock", "csb")
    },
}


def _golden() -> dict:
    with GOLDEN.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_counters_pinned(name):
    assert _pins(RUNS[name]()) == _golden()[name]


def test_golden_covers_every_run():
    assert sorted(_golden()) == sorted(RUNS)


if __name__ == "__main__":
    # One run per line, so a diff of the golden file names the runs that moved.
    lines = [
        f"{json.dumps(name)}: {json.dumps(_pins(run()))}"
        for name, run in sorted(RUNS.items())
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} runs to {GOLDEN}")
