"""The SMP contention experiment: lock vs CSB as cores hammer one device.

The paper's §3.2 separation claim, taken to true multiprocessing: the
locked discipline serializes every core on one spin lock, so its total
completion time grows with the waiter count; the CSB's optimistic
protocol pays only for actual interleavings.  The gap between the two
columns must therefore widen monotonically from 2 to 8 cores — and the
run must be attributable per core all the way down: metrics snapshot,
bus-cycle reporter, and arbiter grant counts.
"""

from repro.evaluation.smp_contention import (
    smp_contention_config,
    smp_contention_cycles,
    smp_contention_system,
    smp_contention_table,
)
from repro.observability.metrics import MetricsSnapshot
from repro.observability.report import BusCycleReporter


class TestSeparation:
    def test_gap_widens_monotonically_and_csb_wins(self):
        gaps = []
        for cores in (2, 4, 8):
            config = smp_contention_config(cores)
            lock = smp_contention_cycles("lock", config=config)
            csb = smp_contention_cycles("csb", config=config)
            assert csb < lock, f"CSB must win at {cores} cores"
            gaps.append(lock - csb)
        assert gaps == sorted(gaps)
        assert len(set(gaps)) == len(gaps)  # strictly increasing

    def test_lock_time_scales_linearly_with_cores(self):
        # Pure serialization: N cores take ~N times the per-core cost.
        two = smp_contention_cycles("lock", config=smp_contention_config(2))
        eight = smp_contention_cycles("lock", config=smp_contention_config(8))
        assert 3.5 < eight / two < 4.5

    def test_csb_run_actually_conflicts(self):
        system = smp_contention_system("csb", 4)
        system.run(max_cycles=50_000_000)
        assert system.stats.get("csb.flush_conflicts") > 0
        # Every core's payload arrived despite the conflicts: each core
        # flushes `iterations` full lines.
        assert system.stats.get("csb.flushes") == 4 * 6

    def test_table_shape(self):
        table = smp_contention_table(core_counts=(2, 4))
        assert table.columns == ["cores", "lock", "csb", "lock/csb"]
        for cores in (2, 4):
            ratio = table.lookup("cores", cores, "lock/csb")
            assert ratio > 1.0


class TestPerCoreAttribution:
    def test_metrics_snapshot_reports_each_core(self):
        system = smp_contention_system("csb", 2)
        system.run(max_cycles=50_000_000)
        snapshot = MetricsSnapshot.from_system(system)
        for core in (0, 1):
            entry = snapshot.per_core[core]
            assert entry["transactions"] > 0
            assert entry["wire_bytes"] > 0
            assert entry["bus_grants"] > 0
            assert entry["context_switches"] >= 1  # the install switch
        document = snapshot.to_dict()
        assert set(document["per_core"]) >= {"0", "1"}

    def test_bus_cycle_reporter_breaks_down_by_core(self):
        system = smp_contention_system("csb", 2)
        reporter = system.attach_observer(BusCycleReporter())
        system.run(max_cycles=50_000_000)
        breakdown = reporter.core_breakdown()
        for core in (0, 1):
            assert breakdown[core]["transactions"] > 0
            assert breakdown[core]["busy_cycles"] > 0
        # Per-core wire bytes must sum to the whole run's wire bytes.
        assert sum(e["wire_bytes"] for e in breakdown.values()) == sum(
            t.size for t in reporter.transactions
        )

    def test_arbiter_granted_every_core(self):
        system = smp_contention_system("lock", 4)
        system.run(max_cycles=50_000_000)
        for core in range(4):
            assert system.arbiter.grants[f"core{core}"] > 0

    def test_stats_transactions_carry_core_ids(self):
        system = smp_contention_system("csb", 2)
        system.run(max_cycles=50_000_000)
        by_core = system.stats.transactions_by_core()
        assert set(by_core) >= {0, 1}
        total = sum(entry["transactions"] for entry in by_core.values())
        assert total == len(system.stats.transactions)
