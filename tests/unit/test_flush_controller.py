"""Unit tests for the FlushController state machine with a mock GPU.

Integration tests cover flushing end to end; these isolate the trigger
logic, the pre-flush/streaming protocol and the relaxations.
"""

import heapq

import pytest

from repro.config import GPUConfig
from repro.core.atomic_buffer import AtomicBuffer, FlushTransaction
from repro.core.dab import DABConfig
from repro.core.flush import FlushController
from repro.interconnect.network import Network
from repro.memory.address import AddressMap
from repro.memory.globalmem import AtomicOp, GlobalMemory
from repro.memory.partition import MemoryPartition


class FakeSM:
    def __init__(self, sm_id, cluster_id, entries):
        self.sm_id = sm_id
        self.cluster_id = cluster_id
        self._entries = list(entries)  # list of AtomicOp
        self._full = False
        self._warps_blocked = True  # pretend warps are at barriers
        self.flush_events = []
        # Read by the controller: the trigger skips SMs with no live
        # warp, and completion releases only SMs holding a wait.
        self.live_count = 1
        self._barrier_ctas = ["cta"]  # a CTA waits at its bar.sync
        self._fence_warps = []

    # SM interface used by the controller -------------------------------
    def any_buffer_nonempty(self):
        return bool(self._entries)

    def any_buffer_full(self):
        return self._full

    def buffers_flush_ready(self):
        return self._full or not self._entries or self._warps_blocked

    def drain_dab_buffers(self, coalesce, offset):
        txns = [FlushTransaction(ops=(op,), sector=op.addr // 32 * 32)
                for op in self._entries]
        if offset and txns:
            k = min(offset, len(txns) - 1)
            txns = txns[k:] + txns[:k]
        self._entries = []
        self._full = False
        return txns

    def release_waits(self, now, since=None, drained=False):
        self.flush_events.append((now, since))


class FakeCluster:
    def __init__(self, cluster_id, sms):
        self.cluster_id = cluster_id
        self.sms = sms


class FakeGPU:
    def __init__(self, config, dab, sm_entries):
        self.config = config
        self.mem = GlobalMemory()
        self.base = self.mem.alloc("data", 256, "f32")
        self.addr_map = AddressMap(num_partitions=config.num_mem_partitions)
        self.partitions = [
            MemoryPartition(p, config, self.mem)
            for p in range(config.num_mem_partitions)
        ]
        self.net_fwd = Network(config.num_clusters,
                               config.num_mem_partitions, latency=5)
        self.sms = []
        self.clusters = []
        per_cluster = config.sms_per_cluster
        for cid in range(config.num_clusters):
            members = []
            for i in range(per_cluster):
                sm_id = cid * per_cluster + i
                ops = [AtomicOp(self.base + 4 * k, "add.f32", (1.0,))
                       for k in sm_entries.get(sm_id, [])]
                sm = FakeSM(sm_id, cid, ops)
                members.append(sm)
                self.sms.append(sm)
            self.clusters.append(FakeCluster(cid, members))
        self._heap = []
        self._seq = 0
        self.now = 0

    def schedule(self, when, fn, args=None):
        self._seq += 1
        heapq.heappush(self._heap, (max(when, self.now), self._seq, fn, args))

    def drain_events(self):
        while self._heap:
            t, _s, fn, args = heapq.heappop(self._heap)
            self.now = max(self.now, t)
            fn(self.now, args)
        return self.now


def make(dab=None, sm_entries=None):
    config = GPUConfig.tiny()
    dab = dab or DABConfig(buffer_entries=64, scheduler="gwat")
    if sm_entries is None:
        sm_entries = {0: [0, 1], 1: [2, 3]}
    gpu = FakeGPU(config, dab, sm_entries)
    return gpu, FlushController(gpu, dab)


class TestTriggers:
    def test_no_trigger_when_nothing_full_or_requested(self):
        gpu, fc = make()
        assert not fc.maybe_trigger(0)
        assert not fc.any_active

    def test_full_buffer_triggers(self):
        gpu, fc = make()
        gpu.sms[0]._full = True
        assert fc.maybe_trigger(0)
        assert fc.stats.trigger_full == 1

    def test_fence_request_triggers(self):
        gpu, fc = make()
        fc.request_fence_flush(0)
        assert fc.maybe_trigger(0)
        assert fc.stats.trigger_fence == 1

    def test_request_cycle_is_the_oldest_pending_one(self):
        gpu, fc = make()
        gpu.sms[1]._warps_blocked = False  # not ready: the request waits
        fc.request_fence_flush(4)
        fc.request_fence_flush(9)
        assert not fc.maybe_trigger(9)
        assert fc._fence_requested_at == 4
        gpu.sms[1]._warps_blocked = True
        assert fc.maybe_trigger(10)
        assert fc._fence_requested_at is None

    def test_drain_request_triggers_only_with_content(self):
        gpu, fc = make(sm_entries={})
        fc.request_drain_flush(0)
        assert not fc.maybe_trigger(0)
        gpu2, fc2 = make()
        fc2.request_drain_flush(0)
        assert fc2.maybe_trigger(0)
        assert fc2.stats.trigger_drain == 1

    def test_quiesce_triggers_with_content(self):
        gpu, fc = make()
        assert fc.maybe_trigger(0, quiesced=True)
        assert fc.stats.trigger_quiesce == 1

    def test_not_ready_blocks_trigger(self):
        gpu, fc = make()
        gpu.sms[0]._full = True
        gpu.sms[1]._warps_blocked = False  # running warps, not full
        assert not fc.maybe_trigger(0)

    def test_sm_without_live_warps_is_not_asked(self):
        gpu, fc = make()
        gpu.sms[0]._full = True
        gpu.sms[1]._warps_blocked = False
        gpu.sms[1].live_count = 0  # every feeder finished
        gpu.sms[1].buffers_flush_ready = None  # a call would raise
        assert fc.maybe_trigger(0)

    def test_no_overlap_by_default(self):
        gpu, fc = make()
        gpu.sms[0]._full = True
        assert fc.maybe_trigger(0)
        gpu.sms[1]._full = True
        assert not fc.maybe_trigger(1)  # first flush still in flight


class TestCompletion:
    def test_flush_applies_all_entries(self):
        gpu, fc = make()
        gpu.sms[0]._full = True
        assert fc.maybe_trigger(0)
        gpu.drain_events()
        assert not fc.any_active
        assert gpu.mem.buffer("data")[:4].sum() == 4.0
        assert fc.stats.entries == 4

    def test_completion_notifies_sms_with_start_time(self):
        gpu, fc = make()
        fc.request_fence_flush(7)
        fc.maybe_trigger(7)
        gpu.drain_events()
        for sm in gpu.sms:
            (now, since), = sm.flush_events
            assert since == 7 and now >= since

    def test_completion_releases_only_sms_holding_a_wait(self):
        gpu, fc = make()
        gpu.sms[0]._barrier_ctas = []
        gpu.sms[1]._barrier_ctas, gpu.sms[1]._fence_warps = [], ["warp"]
        fc.request_fence_flush(2)
        assert fc.maybe_trigger(2)
        gpu.drain_events()
        assert gpu.sms[0].flush_events == []
        (now, since), = gpu.sms[1].flush_events
        assert since == 2 and now >= since

    def test_empty_fence_flush_completes_immediately(self):
        gpu, fc = make(sm_entries={})
        fc.request_fence_flush(3)
        assert fc.maybe_trigger(3)
        assert not fc.any_active
        assert all(sm.flush_events == [(3, 3)] for sm in gpu.sms)

    def test_gate_blocked_during_flight(self):
        gpu, fc = make()
        gpu.sms[0]._full = True
        fc.maybe_trigger(0)
        assert fc.flush_gate_blocked(0)
        assert fc.flush_gate_blocked(1)  # global barrier
        gpu.drain_events()
        assert not fc.flush_gate_blocked(0)


class TestRelaxations:
    def test_nr_applies_in_arrival_order(self):
        dab = DABConfig(buffer_entries=64, scheduler="gwat",
                        relax_no_reorder=True)
        gpu, fc = make(dab=dab)
        gpu.sms[0]._full = True
        assert fc.maybe_trigger(0)
        gpu.drain_events()
        assert gpu.mem.buffer("data")[:4].sum() == 4.0

    def test_cif_flushes_clusters_independently(self):
        dab = DABConfig(buffer_entries=64, scheduler="gwat",
                        relax_no_reorder=True, relax_overlap_flush=True,
                        relax_cluster_flush=True)
        # tiny config: 1 cluster x 2 SMs -> use both SMs same cluster
        gpu, fc = make(dab=dab)
        gpu.sms[0]._full = True
        assert fc.maybe_trigger(0)
        assert fc.stats.cluster_flushes == 1
        gpu.drain_events()
        assert gpu.mem.buffer("data")[:4].sum() == 4.0

    def test_cif_gate_is_per_cluster(self):
        dab = DABConfig(buffer_entries=64, scheduler="gwat",
                        relax_no_reorder=True, relax_overlap_flush=True,
                        relax_cluster_flush=True)
        gpu, fc = make(dab=dab)
        gpu.sms[0]._full = True
        fc.maybe_trigger(0)
        assert fc.flush_gate_blocked(0)


class TestOffset:
    def test_offset_rotates_even_sm_streams(self):
        dab = DABConfig(buffer_entries=64, scheduler="gwat",
                        offset_flush=True, offset_entries=1)
        gpu, fc = make(dab=dab)
        drained = {}
        for sm in gpu.sms:
            orig = sm.drain_dab_buffers

            def spy(coalesce, offset, _sm=sm, _orig=orig):
                drained[_sm.sm_id] = offset
                return _orig(coalesce, offset)

            sm.drain_dab_buffers = spy
        gpu.sms[0]._full = True
        fc.maybe_trigger(0)
        assert drained[0] == 1   # even SM rotated
        assert drained[1] == 0   # odd SM not
