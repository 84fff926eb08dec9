"""Non-blocking D-cache: MSHR semantics, LRU, write-back, coherence."""

import pytest

from repro.common.config import MemoryConfig
from repro.common.errors import ConfigError
from repro.memory.dcache import DataCache, wire_peers


def tiny(assoc=2, sets=2, line=64, mshrs=2, policy="writeback"):
    return DataCache(
        MemoryConfig(
            enabled=True,
            size_bytes=line * assoc * sets,
            line_size=line,
            associativity=assoc,
            mshrs=mshrs,
            write_policy=policy,
        )
    )


class TestConfig:
    def test_geometry_validated(self):
        with pytest.raises(ConfigError):
            MemoryConfig(enabled=True, size_bytes=100)  # not a power of two
        with pytest.raises(ConfigError):
            MemoryConfig(enabled=True, mshrs=0)
        with pytest.raises(ConfigError):
            MemoryConfig(enabled=True, write_policy="writeonce")

    def test_num_sets(self):
        mem = MemoryConfig(size_bytes=16 * 1024, line_size=64, associativity=2)
        assert mem.num_sets == 128


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        cache = tiny()
        assert cache.access(0x100, False, now=0) == 100  # miss_latency
        assert cache.access(0x100, False, now=100) == 101  # refill landed
        assert (cache.hits, cache.misses) == (1, 1)

    def test_same_line_offsets_share_residency(self):
        cache = tiny()
        cache.warm(0x100)
        assert cache.access(0x13F, False, now=0) == 1
        assert cache.misses == 0

    def test_warm_and_probe_count_nothing(self):
        cache = tiny()
        cache.warm(0x100)
        assert cache.probe(0x100)
        assert not cache.probe(0x200)
        assert (cache.hits, cache.misses) == (0, 0)


class TestMSHR:
    def test_secondary_miss_merges(self):
        cache = tiny()
        ready = cache.access(0x100, False, now=0)
        # Second access to the same line while the refill is in flight:
        # no new miss, no new refill, same wake-up cycle.
        assert cache.access(0x108, False, now=5) == ready
        assert cache.misses == 1
        assert cache.mshr_merges == 1
        assert cache.outstanding == 1

    def test_merged_store_installs_dirty(self):
        cache = tiny()
        cache.access(0x100, False, now=0)
        cache.access(0x100, True, now=1)  # merge, marks the refill dirty
        cache.drain(200)
        assert 0x100 in cache.dirty_lines()

    def test_capacity_stall(self):
        cache = tiny(mshrs=2)
        assert cache.can_accept(0x1000, now=0)
        cache.access(0x1000, False, now=0)
        cache.access(0x2000, False, now=0)
        # Both MSHRs busy: a third distinct line must stall at issue...
        assert not cache.can_accept(0x3000, now=1)
        assert cache.mshr_stall_cycles == 1
        # ...but accesses to in-flight lines still merge.
        assert cache.can_accept(0x2008, now=1)
        # Once a refill lands, the stalled line may enter.
        assert cache.can_accept(0x3000, now=100)

    def test_refills_drain_in_order(self):
        cache = tiny(mshrs=4)
        cache.access(0x1000, False, now=0)
        cache.access(0x2000, False, now=7)
        cache.drain(100)  # first refill due, second still in flight
        assert cache.probe(0x1000)
        assert not cache.probe(0x2000)
        assert cache.outstanding == 1

    def test_refill_hook_fires_on_primary_miss_only(self):
        cache = tiny()
        refills = []
        cache.refill_hook = refills.append
        cache.access(0x104, False, now=0)
        cache.access(0x108, False, now=1)  # secondary: no new traffic
        assert refills == [0x100]


class TestEviction:
    def test_lru_victim(self):
        cache = tiny(assoc=2, sets=1)
        cache.warm(0x000)
        cache.warm(0x040)
        cache.access(0x000, False, now=0)  # touch: 0x040 becomes LRU
        cache.access(0x080, False, now=1)
        cache.drain(200)
        assert cache.probe(0x000)
        assert not cache.probe(0x040)
        assert cache.probe(0x080)

    def test_dirty_victim_writes_back_clean_does_not(self):
        cache = tiny(assoc=1, sets=1)
        victims = []
        cache.writeback_hook = victims.append
        cache.warm(0x000)
        cache.access(0x000, True, now=0)  # dirty the resident line
        cache.access(0x040, False, now=1)  # conflict miss
        cache.drain(200)  # install evicts the dirty victim
        assert victims == [0x000]
        assert cache.writebacks == 1
        cache.access(0x080, False, now=300)
        cache.drain(500)  # 0x040 is clean: silent drop
        assert victims == [0x000]

    def test_writeback_precedes_refill_install(self):
        cache = tiny(assoc=1, sets=1)
        order = []
        cache.writeback_hook = lambda line: order.append(("wb", line))
        cache.refill_hook = lambda line: order.append(("refill", line))
        cache.warm(0x000)
        cache.access(0x000, True, now=0)
        cache.access(0x040, False, now=1)
        cache.drain(200)
        # The refill request goes on the bus at miss time; the victim's
        # write-back is generated when the refill installs.
        assert order == [("refill", 0x040), ("wb", 0x000)]
        assert cache.probe(0x040)


class TestWriteThrough:
    def test_store_hit_pays_memory_latency_and_stays_clean(self):
        cache = tiny(policy="writethrough")
        cache.warm(0x100)
        assert cache.access(0x100, True, now=0) == 100
        assert cache.dirty_lines() == []
        assert cache.writethroughs == 1

    def test_store_miss_does_not_allocate(self):
        cache = tiny(policy="writethrough")
        assert cache.access(0x200, True, now=0) == 100
        cache.drain(500)
        assert not cache.probe(0x200)
        assert cache.outstanding == 0

    def test_load_miss_still_allocates(self):
        cache = tiny(policy="writethrough")
        cache.access(0x300, False, now=0)
        cache.drain(500)
        assert cache.probe(0x300)


class TestCoherence:
    def test_store_invalidates_peers(self):
        a, b = tiny(), tiny()
        wire_peers([a, b])
        a.warm(0x100)
        b.warm(0x100)
        a.access(0x100, True, now=0)
        assert not b.probe(0x100)
        assert b.coherence_invalidations == 1
        assert a.probe(0x100)

    def test_dirty_refill_invalidates_peers_at_install(self):
        a, b = tiny(), tiny()
        wire_peers([a, b])
        a.access(0x100, True, now=0)  # store miss in a
        b.warm(0x100)  # b picks the line up meanwhile
        a.drain(200)  # a's dirty install must drop b's copy
        assert not b.probe(0x100)

    def test_invalidate_span_covers_every_line(self):
        cache = tiny(assoc=2, sets=2)
        for address in (0x000, 0x040, 0x080, 0x0C0):
            cache.warm(address)
        cache.invalidate_span(0x040, 128)  # lines 0x040 and 0x080
        assert cache.probe(0x000)
        assert not cache.probe(0x040)
        assert not cache.probe(0x080)
        assert cache.probe(0x0C0)
        assert cache.csb_invalidations == 2


class TestIntrospection:
    def test_counters_snapshot(self):
        cache = tiny()
        cache.access(0x100, False, now=0)
        counters = cache.counters()
        assert counters["misses"] == 1
        assert set(counters) == {
            "hits",
            "misses",
            "mshr_merges",
            "mshr_stall_cycles",
            "writebacks",
            "writethroughs",
            "coherence_invalidations",
            "csb_invalidations",
        }

    def test_quiescent_tracks_outstanding(self):
        cache = tiny()
        assert cache.quiescent()
        cache.access(0x100, False, now=0)
        assert not cache.quiescent()
        cache.drain(200)
        assert cache.quiescent()
