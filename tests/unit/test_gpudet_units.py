"""Unit tests for GPUDet components: store-buffer view, config, and
the controller's live-warp registry."""

import numpy as np
import pytest

from repro.arch.isa import assemble
from repro.arch.kernel import Kernel
from repro.config import GPUConfig
from repro.gpudet.gpudet import GPUDetConfig, GPUDetController, StoreBufferView
from repro.harness.runner import ArchSpec, run_workload
from repro.memory.globalmem import GlobalMemory
from repro.memory.store_buffer import StoreBuffer
from repro.sim.gpu import GPU
from repro.sim.nondet import JitterSource
from repro.workloads.bc import build_bc
from repro.workloads.convolution import build_conv


class TestStoreBufferView:
    def setup_method(self):
        self.mem = GlobalMemory()
        self.base = self.mem.alloc("a", 8, "f32",
                                   init=np.arange(8, dtype=np.float32))
        self.sb = StoreBuffer()
        self.view = StoreBufferView(self.mem, self.sb)

    def test_load_falls_through_to_memory(self):
        out = self.view.load_many(np.array([self.base, self.base + 4]))
        assert list(out) == [0.0, 1.0]

    def test_store_is_isolated_from_memory(self):
        self.view.store_many(np.array([self.base]), np.array([99.0]))
        assert self.mem.buffer("a")[0] == 0.0  # memory untouched
        assert self.sb.load(self.base) == 99.0

    def test_load_sees_own_buffered_store(self):
        self.view.store_many(np.array([self.base]), np.array([99.0]))
        out = self.view.load_many(np.array([self.base, self.base + 4]))
        assert list(out) == [99.0, 1.0]

    def test_drain_then_visible(self):
        self.view.store_many(np.array([self.base + 8]), np.array([7.0]))
        for addr, value in self.sb.drain():
            self.mem.store(addr, value)
        assert self.mem.buffer("a")[2] == np.float32(7.0)

    def test_misses_gather_in_one_memory_call(self, monkeypatch):
        gathers = []
        real = GlobalMemory.load_many

        def spy(mem, addrs):
            gathers.append(list(addrs))
            return real(mem, addrs)

        def scalar_load(mem, addr):
            raise AssertionError("per-lane GlobalMemory.load")

        monkeypatch.setattr(GlobalMemory, "load_many", spy)
        monkeypatch.setattr(GlobalMemory, "load", scalar_load)
        self.view.store_many(np.array([self.base + 4]), np.array([99.0]))
        addrs = [self.base + 12, self.base + 4, self.base, self.base + 4]
        out = self.view.load_many(np.array(addrs))
        assert list(out) == [3.0, 99.0, 0.0, 99.0]
        assert gathers == [[self.base + 12, self.base]]
        assert self.sb.stats.load_hits == 2

    def test_buffered_address_never_reaches_memory(self):
        # Outside every allocation: memory would raise, but the warp's
        # own buffer answers first.
        stray = self.base + 4096
        self.view.store_many(np.array([stray]), np.array([5.0]))
        out = self.view.load_many(np.array([stray, self.base + 8]))
        assert list(out) == [5.0, 2.0]

    @pytest.mark.parametrize("bad", [(2, 64), (64, 2)])
    def test_bad_address_raises_in_lane_order(self, bad):
        # Unaligned (base + 2) and out of bounds (base + 64): the first
        # bad lane raises memory's own error, whichever kind it is.
        first, second = (self.base + off for off in bad)
        with pytest.raises(ValueError) as expected:
            self.mem.load(first)
        with pytest.raises(ValueError) as got:
            self.view.load_many(np.array([self.base, first, second]))
        assert str(got.value) == str(expected.value)

    def test_config_defaults(self):
        cfg = GPUDetConfig()
        assert cfg.quantum_instrs == 200
        assert cfg.serial_issue_gap >= 1
        assert cfg.serial_round_trip > 0


class TestLiveRegistry:
    def test_registry_and_state_follow_live_warps(self, monkeypatch):
        """At every commit the registry holds exactly the placed,
        not-done warps, and per-warp state exists only for them and for
        exited warps whose stores the commit is about to drain."""
        commits = []
        enter_commit = GPUDetController._enter_commit

        def checked(ctl, now):
            live = {w.uid for sm in ctl.gpu.sms for w in sm.all_warps()
                    if not w.done}
            assert set(ctl._live) == live
            assert all(st.warp.uid == uid for uid, st in ctl._live.items())
            exited = set(ctl._states) - live
            assert live <= set(ctl._states)
            assert all(not ctl._states[uid].sb.empty for uid in exited)
            enter_commit(ctl, now)
            assert set(ctl._states) == live
            commits.append((len(live), len(exited), ctl.gpu._warp_uid))

        monkeypatch.setattr(GPUDetController, "_enter_commit", checked)
        res = run_workload(lambda: build_bc(graph="1k", scale=32),
                           ArchSpec.make_gpudet(),
                           gpu_config=GPUConfig.small(), seed=1)
        assert res.kernels == 5
        assert len(commits) > 100
        # Exited warps' stores waited for a commit that then dropped
        # their state ...
        assert any(exited for _live, exited, _placed in commits)
        # ... and CTA turnover placed far more warps than were ever live.
        _live, _exited, placed = commits[-1]
        assert placed > 2 * max(live for live, _e, _p in commits)

    def test_boundary_releases_every_arrived_barrier(self, monkeypatch):
        """A quantum boundary visits only the SMs the registry names, yet
        must release every fully arrived barrier and fence on the GPU."""
        arrived_sms = []
        serial_done = GPUDetController._serial_done

        def arrived(sm):
            for cta in sm._barrier_ctas:
                warps = [w for w in sm.all_warps()
                         if w.cta is cta and not w.done]
                if all(w.at_barrier for w in warps):
                    return True
            return bool(sm._fence_warps)

        def checked(ctl, now, args):
            arrived_sms.append(sum(arrived(sm) for sm in ctl.gpu.sms))
            serial_done(ctl, now, args)
            assert not any(arrived(sm) for sm in ctl.gpu.sms)

        monkeypatch.setattr(GPUDetController, "_serial_done", checked)
        run_workload(lambda: build_conv("cnv2_1"), ArchSpec.make_gpudet(),
                     gpu_config=GPUConfig.small(), seed=1)
        assert max(arrived_sms) > 1  # releases on several SMs at once


class TestBarrierThenAtomic:
    """A warp waiting at a barrier must not end its quantum on the
    atomic behind it: serial mode would run that atomic before the
    barrier released."""

    PROG = """
        mov.s32 r_w, %warpid
        mov.s32 r_l, %laneid
        setp.eq.s32 p_l0, r_l, 0
        setp.ne.s32 p_w, r_w, 0
        and.pred p_do, p_l0, p_w
    @p_w bra BAR
        mov.s32 r_i, 0
    SPIN:
        add.s32 r_i, r_i, 1
        setp.lt.s32 p_more, r_i, 60
    @p_more bra SPIN
        mov.s32 r_k, 1000
    @p_l0 st.global.s32 [c_x], r_k
    BAR:
        bar.sync
    @p_do atom.global.add.s32 r_old, [c_x], 1
        shl.s32 r_o, r_w, 2
        add.s32 r_a, c_old, r_o
    @p_do st.global.s32 [r_a], r_old
        exit
    """

    @pytest.mark.parametrize("preset", ["tiny", "small", "titan_v"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_post_barrier_atomic_waits_for_release(self, preset, seed):
        mem = GlobalMemory()
        x = mem.alloc("x", 1, "s32")
        old = mem.alloc("old", 8, "s32", init=np.full(8, -1, np.int32))
        config = getattr(GPUConfig, preset)()
        gpu = GPU(config, mem, gpudet=GPUDetConfig(quantum_instrs=20),
                  jitter=JitterSource(seed))
        # One CTA of 8 warps: warp 0 stores 1000 after a long spin,
        # warps 1-7 add 1 right after the barrier.
        gpu.launch(Kernel("k", assemble(self.PROG), grid_dim=1,
                          cta_dim=8 * config.warp_size,
                          params={"c_x": x, "c_old": old}))
        gpu.run()
        assert mem.buffer("x")[0] == 1007
        assert all(v >= 1000 for v in mem.buffer("old")[1:])
