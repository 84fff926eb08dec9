"""DescriptorRing: enqueue, drain rate, drops, occupancy integral."""

import struct

import pytest

from repro.common.errors import ConfigError
from repro.devices.ring import (
    REG_DRAINED,
    REG_DROPS,
    REG_ENQUEUED,
    REG_PENDING,
    DescriptorRing,
)
from repro.memory.layout import PageAttr, Region

from tests.conftest import ring_state


def make_ring(capacity=4, service_cycles=10):
    region = Region(0x3010_0000, 0x1000, PageAttr.UNCACHED, "ring")
    return DescriptorRing(
        region, capacity=capacity, service_cycles=service_cycles
    )


def read_reg(ring, offset):
    return struct.unpack("<Q", ring.handle_read(offset, 8))[0]


class TestEnqueueAndDrops:
    def test_writes_enqueue_up_to_capacity(self):
        ring = make_ring(capacity=2)
        ring.handle_write(0, b"\0" * 8)
        ring.handle_write(8, b"\0" * 8)
        assert ring.pending == 2
        assert ring.high_water == 2
        ring.handle_write(16, b"\0" * 8)
        assert ring.pending == 2
        assert ring.drops == 1
        assert ring.enqueued == 2

    def test_registers_read_back_counters(self):
        ring = make_ring(capacity=2)
        ring.handle_write(0, b"\0" * 8)
        ring.handle_write(0, b"\0" * 8)
        ring.handle_write(0, b"\0" * 8)
        assert read_reg(ring, REG_PENDING) == 2
        assert read_reg(ring, REG_ENQUEUED) == 2
        assert read_reg(ring, REG_DROPS) == 1
        assert read_reg(ring, REG_DRAINED) == 0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            make_ring(capacity=0)
        with pytest.raises(ConfigError):
            make_ring(service_cycles=0)


class TestDrainRate:
    def test_one_drain_per_service_period(self):
        ring = make_ring(capacity=8, service_cycles=10)
        for _ in range(3):
            ring.handle_write(0, b"\0" * 8)
        for cycle in range(1, 10):
            ring.tick(cycle)
        assert ring.drained == 0
        ring.tick(10)
        assert ring.drained == 1
        ring.tick(20)  # a 10-cycle gap in one tick still drains exactly one
        assert ring.drained == 2

    def test_idle_ring_banks_no_credit(self):
        ring = make_ring(service_cycles=10)
        for cycle in range(1, 50):
            ring.tick(cycle)  # empty the whole time
        ring.handle_write(0, b"\0" * 8)
        ring.tick(55)
        assert ring.drained == 0  # only 5 cycles of service so far
        ring.tick(60)
        assert ring.drained == 1


class TestOccupancyIntegral:
    def test_constant_occupancy_integrates_exactly(self):
        ring = make_ring(capacity=8, service_cycles=100)
        ring.handle_write(0, b"\0" * 8)
        ring.handle_write(0, b"\0" * 8)
        for cycle in range(1, 11):
            ring.tick(cycle)
        assert ring.ticks == 10
        assert ring.occupancy_integral == 20
        assert ring.mean_occupancy() == 2.0

    def test_gap_integration_matches_cycle_by_cycle(self):
        # The same schedule ticked in one jump and cycle-by-cycle must
        # integrate to the same occupancy (piecewise-exact drains).
        def run(step):
            ring = make_ring(capacity=8, service_cycles=7)
            ring.tick(0)  # establish the device's epoch
            for _ in range(5):
                ring.handle_write(0, b"\0" * 8)
            cycle = 0
            while cycle < 70:
                cycle += step
                ring.tick(cycle)
            return ring.occupancy_integral, ring.drained

        assert run(1) == run(70)

    def test_mean_occupancy_never_exceeds_capacity(self):
        ring = make_ring(capacity=4, service_cycles=1000)
        for _ in range(20):
            ring.handle_write(0, b"\0" * 8)
        for cycle in range(1, 100):
            ring.tick(cycle)
        assert ring.mean_occupancy() <= ring.capacity

    def test_empty_ring_mean_is_zero(self):
        assert make_ring().mean_occupancy() == 0.0


class TestGapProperty:
    """A ring ticked at every bus cycle of a span ends in the same state as
    one ticked only at the span's first and last cycle — what the clock
    driver's jump relies on when it catches devices up."""

    @staticmethod
    def primed(pending, history):
        """``pending`` descriptors written, then ticks at bus cycles
        ``0 .. history - 1`` (none: the ring has never ticked)."""
        ring = make_ring(capacity=8, service_cycles=5)
        for _ in range(pending):
            ring.handle_write(0, b"\0" * 8)
        for cycle in range(history):
            ring.tick(cycle)
        return ring

    @staticmethod
    def state(ring):
        return (
            ring.pending,
            ring.drained,
            ring.ticks,
            ring.occupancy_integral,
            ring._service_credit,
        )

    @pytest.mark.parametrize(
        "pending, history, first, last",
        [
            (3, 0, 0, 0),  # the ring's first tick only
            (3, 0, 0, 9),  # begins at the ring's first tick, one drain
            (8, 0, 4, 30),  # first tick late, several drains
            (2, 0, 6, 40),  # first tick late, empties the ring
            (8, 3, 3, 3),  # one cycle, with service credit banked
            (8, 3, 3, 14),  # crosses drains, stays non-empty
            (8, 3, 3, 60),  # crosses drains and empties the ring
            (4, 3, 9, 25),  # an unticked gap before the span
            (0, 3, 3, 20),  # empty throughout
        ],
    )
    def test_span_ends_equal_every_cycle(self, pending, history, first, last):
        every = self.primed(pending, history)
        for cycle in range(first, last + 1):
            every.tick(cycle)
        ends = self.primed(pending, history)
        ends.tick(first)
        if last != first:
            ends.tick(last)
        assert self.state(ends) == self.state(every)
        assert ends.mean_occupancy() == every.mean_occupancy()


class TestLazyTicking:
    """A ring the System's clock driver ticks lazily — at its first tick,
    at the bus cycle before each transaction reaches it, and at the end —
    ends as one ticked at every bus cycle, and reads back the same values
    along the way (:attr:`DescriptorRing.integrates_gaps`)."""

    @staticmethod
    def drive(schedule, first, last, lazy):
        """Bus cycles ``first .. last``; ``schedule`` maps a bus cycle to
        the accesses landing in it: ``None`` a write, an offset a read.
        As in a System, the accesses of a cycle land before its tick."""
        ring = make_ring(capacity=3, service_cycles=6)
        reads = []
        for cycle in range(first, last + 1):
            accesses = schedule.get(cycle, ())
            if lazy and accesses and cycle > first:
                ring.tick(cycle - 1)
            for offset in accesses:
                if offset is None:
                    ring.handle_write(0, b"\0" * 8)
                else:
                    reads.append((cycle, read_reg(ring, offset)))
            if not lazy or cycle == first:
                ring.tick(cycle)
        if lazy:
            ring.tick(last)
        return ring_state(ring), reads

    @pytest.mark.parametrize(
        "schedule, first, last",
        [
            # written and read after long untouched spans
            (
                {
                    5: [None, None],
                    6: [None, None, REG_DROPS],
                    400: [REG_PENDING, None],
                    1_900: [None, REG_DRAINED, REG_ENQUEUED],
                },
                5,
                3_000,
            ),
            # first written mid-run, then read back at once
            ({2_000: [None] * 5, 2_001: [REG_PENDING, REG_DROPS]}, 0, 2_500),
            # accessed in the first cycle and the last
            ({7: [None] * 4 + [REG_PENDING], 90: [None, REG_DRAINED]}, 7, 90),
        ],
        ids=["long-spans", "first-written-mid-run", "edges"],
    )
    def test_lazy_equals_every_cycle(self, schedule, first, last):
        every = self.drive(schedule, first, last, lazy=False)
        assert self.drive(schedule, first, last, lazy=True) == every
        assert every[0][6] > 0  # drops: the ring overflowed

    @pytest.mark.parametrize("seed", range(20))
    def test_random_schedules(self, seed):
        import random

        rng = random.Random(seed)
        schedule = {}
        for _ in range(rng.randrange(1, 30)):
            cycle = rng.randrange(0, 2_000)
            schedule.setdefault(cycle, []).extend(
                rng.choice([None, None, REG_PENDING, REG_DRAINED, REG_DROPS])
                for _ in range(rng.randrange(1, 4))
            )
        first = rng.randrange(0, min(schedule) + 1)
        last = max(schedule) + rng.randrange(0, 500)
        every = self.drive(schedule, first, last, lazy=False)
        assert self.drive(schedule, first, last, lazy=True) == every
