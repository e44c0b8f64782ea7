"""Unit tests for cache, DRAM, ROP, network, flush/store buffers."""

import pytest

from repro.config import CacheConfig, GPUConfig
from repro.interconnect.network import Network
from repro.memory.cache import SectorCache
from repro.memory.dram import DRAMModel
from repro.memory.flush_buffer import FlushReorderBuffer
from repro.memory.globalmem import AtomicOp, GlobalMemory
from repro.memory.partition import MemoryPartition
from repro.memory.rop import ROPUnit
from repro.memory.store_buffer import StoreBuffer
from repro.memory.address import AddressMap


class TestSectorCache:
    def make(self, **kw):
        return SectorCache(CacheConfig(size_bytes=4096, line_bytes=128,
                                       assoc=2, **kw))

    def test_first_access_misses(self):
        c = self.make()
        assert not c.access(0x1000)

    def test_second_access_hits(self):
        c = self.make()
        c.access(0x1000)
        assert c.access(0x1000)

    def test_sector_granularity(self):
        c = self.make()
        c.access(0x1000)           # sector 0 of line
        assert not c.access(0x1020)  # sector 1: same line, new sector
        assert c.stats.sector_misses_on_present_line == 1

    def test_lru_eviction(self):
        c = self.make()
        sets = c.config.num_sets
        stride = 128 * sets  # same set
        c.access(0)
        c.access(stride)
        c.access(2 * stride)  # evicts line 0 (assoc 2)
        assert not c.probe(0)
        assert c.stats.evictions == 1

    def test_lru_eviction_with_three_sets(self):
        # A set count that is no power of two: the set is the line
        # number modulo the set count.
        c = SectorCache(CacheConfig(size_bytes=768, line_bytes=128, assoc=2))
        assert c.config.num_sets == 3
        stride = 128 * 3  # same set
        for line in (0, stride, 128, 2 * stride):  # 128: another set
            c.access(line)
        assert not c.probe(0) and c.probe(128)
        assert c.probe(stride) and c.probe(2 * stride)
        assert c.stats.evictions == 1

    def test_lru_touch_on_hit(self):
        c = self.make()
        sets = c.config.num_sets
        stride = 128 * sets
        c.access(0)
        c.access(stride)
        c.access(0)              # touch: line 0 becomes MRU
        c.access(2 * stride)     # evicts line `stride`
        assert c.probe(0)
        assert not c.probe(stride)

    def test_invalidate(self):
        c = self.make()
        c.access(0x1000)
        c.invalidate(0x1000)
        assert not c.probe(0x1000)

    def test_probe_does_not_touch_stats(self):
        c = self.make()
        c.probe(0x1000)
        assert c.stats.accesses == 0

    def test_miss_rate(self):
        c = self.make()
        c.access(0)
        c.access(0)
        assert c.stats.miss_rate == 0.5

    def test_evict_one(self):
        c = self.make()
        c.access(0)
        c.evict_one()
        assert c.resident_lines == 0

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_bytes=128, assoc=2)


class TestDRAM:
    def test_latency(self):
        d = DRAMModel(latency=100, queue_capacity=4)
        assert d.accept(0) == 100

    def test_bandwidth_serialization(self):
        d = DRAMModel(latency=100, queue_capacity=32, service_interval=2)
        t1 = d.accept(0)
        t2 = d.accept(0)
        assert t2 == t1 + 2

    def test_queue_pressure_delays(self):
        d = DRAMModel(latency=10, queue_capacity=1)
        d.accept(0)
        d.accept(0)
        late = d.accept(0)  # two outstanding beyond capacity
        assert late > 12

    def test_retire_tracks_outstanding(self):
        d = DRAMModel(latency=10, queue_capacity=4)
        d.accept(0)
        assert d.outstanding == 1
        d.retire()
        assert d.outstanding == 0

    def test_retire_without_request(self):
        d = DRAMModel(latency=10, queue_capacity=4)
        with pytest.raises(RuntimeError):
            d.retire()

    def test_jitter_applied(self):
        d = DRAMModel(latency=10, queue_capacity=4, jitter=lambda: 5)
        assert d.accept(0) == 15

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DRAMModel(latency=0, queue_capacity=4)


class TestROP:
    def test_serializes(self):
        mem = GlobalMemory()
        base = mem.alloc("a", 1, "s32")
        rop = ROPUnit(mem, op_latency=4)
        _, t1 = rop.execute(0, AtomicOp(base, "add.s32", (1,)))
        _, t2 = rop.execute(0, AtomicOp(base, "add.s32", (1,)))
        assert (t1, t2) == (4, 8)
        assert mem.buffer("a")[0] == 2

    def test_returns_old_value(self):
        mem = GlobalMemory()
        base = mem.alloc("a", 1, "s32", init=[7])
        rop = ROPUnit(mem, op_latency=1)
        old, _ = rop.execute(0, AtomicOp(base, "exch.s32", (1,)))
        assert old == 7

    def test_latency_validation(self):
        with pytest.raises(ValueError):
            ROPUnit(GlobalMemory(), op_latency=0)


class TestNetwork:
    def test_base_latency(self):
        n = Network(2, 2, latency=10)
        assert n.send(0, 0, 0) == 11  # latency + 1 cycle port service

    def test_dst_port_contention(self):
        n = Network(2, 2, latency=10, dst_bandwidth=1)
        t1 = n.send(0, 0, 0)
        t2 = n.send(0, 1, 0)
        assert t2 > t1

    def test_independent_ports_parallel(self):
        n = Network(2, 2, latency=10)
        t1 = n.send(0, 0, 0)
        t2 = n.send(0, 1, 1)
        assert t1 == t2

    def test_flit_math(self):
        n = Network(1, 1, latency=5, flit_bytes=40)
        assert n.flits_for(8) == 1
        assert n.flits_for(41) == 2

    def test_backpressure_delays_injection(self):
        n = Network(1, 1, latency=5, dst_bandwidth=1, input_buffer_flits=4)
        for _ in range(20):
            last = n.send(0, 0, 0, payload_bytes=8)
        # with backlog bounded at 4 flits, arrivals pace out ~1/cycle
        assert last >= 20

    def test_monotone_arrivals_per_port(self):
        n = Network(2, 1, latency=3)
        prev = 0
        for i in range(10):
            t = n.send(0, i % 2, 0)
            assert t > prev
            prev = t

    def test_validation(self):
        with pytest.raises(ValueError):
            Network(1, 1, latency=0)
        with pytest.raises(ValueError):
            Network(1, 1, latency=5, dst_bandwidth=0)
        with pytest.raises(ValueError):
            Network(1, 1, latency=5, input_buffer_flits=0)


class TestFlushReorderBuffer:
    def test_in_order_single_sm(self):
        b = FlushReorderBuffer()
        b.begin_round({0: 2})
        assert b.receive(0, "x") == ["x"]
        assert b.receive(0, "y") == ["y"]
        assert b.complete

    def test_round_robin_two_sms(self):
        b = FlushReorderBuffer()
        b.begin_round({0: 2, 1: 2})
        # SM1's entries arrive first: they wait for SM0's.
        assert b.receive(1, "b0") == []
        assert b.receive(1, "b1") == []
        assert b.receive(0, "a0") == ["a0", "b0"]
        assert b.receive(0, "a1") == ["a1", "b1"]
        assert b.complete

    def test_uneven_counts_skip_shorter_sm(self):
        b = FlushReorderBuffer()
        b.begin_round({0: 1, 1: 3})
        assert b.receive(0, "a0") == ["a0"]
        assert b.receive(1, "b0") == ["b0"]
        assert b.receive(1, "b1") == ["b1"]
        assert b.receive(1, "b2") == ["b2"]
        assert b.complete

    def test_empty_round_completes_immediately(self):
        b = FlushReorderBuffer()
        b.begin_round({})
        assert b.complete

    def test_overflow_rejected(self):
        b = FlushReorderBuffer()
        b.begin_round({0: 1, 1: 1})
        b.receive(0, "a")
        with pytest.raises(ValueError):
            b.receive(0, "b")  # more than SM 0 announced

    def test_receive_after_round_closed_rejected(self):
        b = FlushReorderBuffer()
        b.begin_round({0: 1})
        b.receive(0, "a")
        with pytest.raises(RuntimeError):
            b.receive(0, "b")

    def test_unknown_sm_rejected(self):
        b = FlushReorderBuffer()
        b.begin_round({0: 1})
        with pytest.raises(ValueError):
            b.receive(9, "a")

    def test_double_round_rejected(self):
        b = FlushReorderBuffer()
        b.begin_round({0: 1})
        with pytest.raises(RuntimeError):
            b.begin_round({0: 1})

    def test_receive_outside_round_rejected(self):
        b = FlushReorderBuffer()
        with pytest.raises(RuntimeError):
            b.receive(0, "a")

    def test_occupancy_stats(self):
        b = FlushReorderBuffer()
        b.begin_round({0: 1, 1: 1})
        b.receive(1, "b")
        assert b.stats.max_occupancy == 1
        b.receive(0, "a")
        assert b.occupancy == 0


class TestStoreBuffer:
    def test_store_then_load_hits(self):
        sb = StoreBuffer()
        sb.store(100, 1.5)
        assert sb.load(100) == 1.5
        assert sb.stats.load_hits == 1

    def test_load_miss_returns_none(self):
        sb = StoreBuffer()
        assert sb.load(100) is None

    def test_last_write_wins(self):
        sb = StoreBuffer()
        sb.store(100, 1.0)
        sb.store(100, 2.0)
        assert sb.load(100) == 2.0
        assert len(sb) == 1

    def test_drain_in_append_order(self):
        sb = StoreBuffer()
        sb.store(200, 1.0)
        sb.store(100, 2.0)
        assert sb.drain() == [(200, 1.0), (100, 2.0)]
        assert sb.empty

    def test_stats(self):
        sb = StoreBuffer()
        sb.store(1 * 4, 0)
        sb.store(2 * 4, 0)
        assert sb.stats.max_entries == 2


class TestPartitionAndAddressMap:
    def test_partition_hashing_line_interleaved(self):
        am = AddressMap(line_bytes=128, num_partitions=4)
        assert am.partition_of(0) == 0
        assert am.partition_of(128) == 1
        assert am.partition_of(4 * 128) == 0

    def test_sector_of(self):
        am = AddressMap()
        assert am.sector_of(0x1234) == 0x1220

    def test_partition_read_hit_vs_miss(self):
        mem = GlobalMemory()
        p = MemoryPartition(0, GPUConfig.tiny(), mem)
        t1, hit1 = p.service_request(0, 0x1000, is_write=False)
        t2, hit2 = p.service_request(t1, 0x1000, is_write=False)
        assert not hit1 and hit2
        assert t2 - t1 < t1  # hit is much faster than miss

    def test_partition_atomic_applies(self):
        mem = GlobalMemory()
        base = mem.alloc("a", 1, "s32")
        p = MemoryPartition(0, GPUConfig.tiny(), mem)
        old, done = p.service_atomic(0, AtomicOp(base, "add.s32", (2,)))
        assert old == 0 and done > 0
        assert mem.buffer("a")[0] == 2

    def test_partition_flush_round(self):
        mem = GlobalMemory()
        base = mem.alloc("a", 4, "s32")
        p = MemoryPartition(0, GPUConfig.tiny(), mem)
        p.begin_flush_round({0: 1, 1: 1})
        applied, _ = p.receive_flush_entry(0, 1, [AtomicOp(base, "add.s32", (1,))])
        assert applied == []  # waits for SM 0
        applied, _ = p.receive_flush_entry(0, 0, [AtomicOp(base + 4, "add.s32", (1,))])
        assert len(applied) == 2
        assert p.flush_round_complete
