"""Integration tests: the simulator runs kernels and computes correctly."""

import gc
import weakref

import numpy as np
import pytest

from repro.arch.isa import assemble
from repro.arch.kernel import Kernel
from repro.check.oracle import run_oracle
from repro.config import GPUConfig
from repro.core.dab import DABConfig
from repro.gpudet.gpudet import GPUDetConfig
from repro.harness.runner import ArchSpec, run_workload
from repro.memory.globalmem import GlobalMemory
from repro.sim.gpu import GPU, SimulationError
from repro.sim.nondet import JitterSource
from repro.workloads import Workload
from repro.workloads.microbench import build_atomic_sum

from tests.integration.conftest import run_sum


class TestBasicExecution:
    def test_sum_value_close_to_reference(self):
        res, value, data = run_sum(n=256)
        ref = float(np.sum(data.astype(np.float64)))
        assert value == pytest.approx(ref, rel=1e-3, abs=1e-2)
        assert res.cycles > 0
        assert res.atomics == 256 // 32  # one red instruction per warp

    def test_multi_kernel_sequencing(self):
        mem = GlobalMemory()
        b = mem.alloc("x", 1, "s32")
        prog = assemble("""
            mov.s32 r_one, 1
            red.global.add.s32 [c_x], r_one
            exit
        """)
        gpu = GPU(GPUConfig.tiny(), mem, jitter=JitterSource(1))
        for i in range(3):
            gpu.launch(Kernel(f"k{i}", prog, grid_dim=1, cta_dim=32,
                              params={"c_x": b}))
        res = gpu.run()
        assert res.kernels == 3
        assert mem.buffer("x")[0] == 3 * 32

    def test_store_load_roundtrip_through_memory_system(self):
        mem = GlobalMemory()
        n = 64
        b_in = mem.alloc("in", n, "f32",
                         init=np.arange(n, dtype=np.float32))
        b_out = mem.alloc("out", n, "f32")
        prog = assemble("""
            mov.s32 r_i, %gtid
            setp.ge.s32 p_d, r_i, c_n
        @p_d bra DONE
            shl.s32 r_o, r_i, 2
            add.s32 r_a, c_in, r_o
            ld.global.f32 r_v, [r_a]
            mul.f32 r_v, r_v, 2.0
            add.s32 r_b, c_out, r_o
            st.global.f32 [r_b], r_v
        DONE:
            exit
        """)
        gpu = GPU(GPUConfig.tiny(), mem, jitter=JitterSource(1))
        gpu.launch(Kernel("scale", prog, grid_dim=2, cta_dim=32,
                          params={"c_in": b_in, "c_out": b_out, "c_n": n}))
        gpu.run()
        assert (mem.buffer("out") == np.arange(n, dtype=np.float32) * 2).all()

    def test_barrier_synchronizes_cta(self):
        # Warp 1 stores, all warps barrier, warp 0 reads what warp 1 wrote.
        mem = GlobalMemory()
        b = mem.alloc("buf", 64, "f32")
        b_out = mem.alloc("res", 64, "f32")
        prog = assemble("""
            mov.s32 r_t, %tid
            shl.s32 r_o, r_t, 2
            add.s32 r_a, c_buf, r_o
            cvt.f32.s32 r_v, r_t
            st.global.f32 [r_a], r_v
            bar.sync
            mov.s32 r_u, 63
            sub.s32 r_u, r_u, r_t
            shl.s32 r_uo, r_u, 2
            add.s32 r_ua, c_buf, r_uo
            ld.global.f32 r_w, [r_ua]
            add.s32 r_ra, c_res, r_o
            st.global.f32 [r_ra], r_w
            exit
        """)
        gpu = GPU(GPUConfig.tiny(), mem, jitter=JitterSource(1))
        gpu.launch(Kernel("bar", prog, grid_dim=1, cta_dim=64,
                          params={"c_buf": b, "c_res": b_out}))
        gpu.run()
        expect = np.arange(63, -1, -1, dtype=np.float32)
        assert (mem.buffer("res") == expect).all()

    def test_membar_completes(self):
        mem = GlobalMemory()
        b = mem.alloc("x", 1, "f32")
        prog = assemble("""
            mov.f32 r_v, 1.0
            red.global.add.f32 [c_x], r_v
            membar.gl
            exit
        """)
        gpu = GPU(GPUConfig.tiny(), mem, jitter=JitterSource(1))
        gpu.launch(Kernel("fence", prog, grid_dim=1, cta_dim=32,
                          params={"c_x": b}))
        gpu.run()
        assert mem.buffer("x")[0] == np.float32(32.0)

    def test_membar_under_dab_flushes(self):
        mem = GlobalMemory()
        b = mem.alloc("x", 1, "f32")
        prog = assemble("""
            mov.f32 r_v, 1.0
            red.global.add.f32 [c_x], r_v
            membar.gl
            exit
        """)
        gpu = GPU(GPUConfig.tiny(), mem, dab=DABConfig.paper_default(),
                  jitter=JitterSource(1))
        gpu.launch(Kernel("fence", prog, grid_dim=1, cta_dim=32,
                          params={"c_x": b}))
        res = gpu.run()
        assert mem.buffer("x")[0] == np.float32(32.0)
        assert gpu.flush.stats.flushes >= 1

    def test_max_cycles_guard(self):
        mem = GlobalMemory()
        b = mem.alloc("x", 1, "f32")
        prog = assemble("""
        LOOP:
            ld.global.f32 r_v, [c_x]
            setp.lt.f32 p_c, r_v, 1.0
        @p_c bra LOOP
            exit
        """)
        gpu = GPU(GPUConfig.tiny(), mem, jitter=JitterSource(1))
        gpu.launch(Kernel("spin", prog, grid_dim=1, cta_dim=32,
                          params={"c_x": b}))
        with pytest.raises(SimulationError):
            gpu.run(max_cycles=5000)

    def test_atom_rejected_under_dab(self):
        mem = GlobalMemory()
        b = mem.alloc("x", 1, "s32")
        prog = assemble("""
            atom.global.add.s32 r_old, [c_x], 1
            exit
        """)
        gpu = GPU(GPUConfig.tiny(), mem, dab=DABConfig.paper_default(),
                  jitter=JitterSource(1))
        gpu.launch(Kernel("atom", prog, grid_dim=1, cta_dim=32,
                          params={"c_x": b}))
        with pytest.raises(SimulationError):
            gpu.run()

    def test_dab_and_gpudet_mutually_exclusive(self):
        from repro.gpudet.gpudet import GPUDetConfig

        with pytest.raises(ValueError):
            GPU(GPUConfig.tiny(), GlobalMemory(),
                dab=DABConfig.paper_default(), gpudet=GPUDetConfig())

    def test_ipc_reasonable(self):
        res, _, _ = run_sum(n=1024, config=GPUConfig.small())
        assert 0.01 < res.ipc < 32

    def test_stats_populated(self):
        res, _, _ = run_sum(n=256)
        assert res.stalls.total > 0
        assert res.icnt_packets > 0
        assert res.mem_digest

    def test_result_counts_conserved(self):
        res, _, _ = run_sum(n=256)
        # every issued slot shows up in the breakdown
        assert res.stalls.issued == res.instructions


class TestDABBasics:
    def test_dab_result_matches_some_serial_order(self):
        # With integer adds, any order gives the exact same result.
        mem = GlobalMemory()
        b = mem.alloc("x", 1, "s32")
        prog = assemble("""
            mov.s32 r_v, 1
            red.global.add.s32 [c_x], r_v
            exit
        """)
        gpu = GPU(GPUConfig.tiny(), mem, dab=DABConfig.paper_default(),
                  jitter=JitterSource(1))
        gpu.launch(Kernel("inc", prog, grid_dim=4, cta_dim=64,
                          params={"c_x": b}))
        gpu.run()
        assert mem.buffer("x")[0] == 4 * 64

    def test_dab_flush_on_kernel_drain(self):
        res, value, data = run_sum(n=128, dab=DABConfig.paper_default())
        assert value != 0.0

    def test_every_scheduler_runs_sum(self):
        for sched in ("srr", "gtrr", "gtar", "gwat"):
            cfg = DABConfig(buffer_entries=32, scheduler=sched)
            res, value, data = run_sum(n=256, dab=cfg)
            ref = float(np.sum(data.astype(np.float64)))
            assert value == pytest.approx(ref, rel=1e-2, abs=1e-2), sched

    def test_warp_level_buffers_run(self):
        res, value, data = run_sum(n=256, dab=DABConfig.warp_level())
        ref = float(np.sum(data.astype(np.float64)))
        assert value == pytest.approx(ref, rel=1e-2, abs=1e-2)

    def test_buffer_smaller_than_warp_rejected(self):
        # Paper IV-B: buffers need >= 32 entries (a full warp request);
        # a smaller buffer could never accept one and would deadlock.
        cfg = DABConfig(buffer_entries=8, scheduler="gwat")
        with pytest.raises(ValueError):
            run_sum(n=64, dab=cfg)

    def test_relaxed_variants_run(self):
        for cfg in (
            DABConfig(relax_no_reorder=True),
            DABConfig(relax_no_reorder=True, relax_overlap_flush=True),
            DABConfig(relax_no_reorder=True, relax_overlap_flush=True,
                      relax_cluster_flush=True),
        ):
            res, value, _ = run_sum(n=256, dab=cfg)
            assert value != 0.0


_TWO_BARRIER_PROG = """
    mov.s32 r_t, %tid
    mov.s32 r_w, %warpid
    shl.s32 r_o, r_t, 2
    mov.f32 r_v, 1.0
    red.global.add.f32 [c_acc], r_v
    bar.sync
    setp.ne.s32 p_w, r_w, 1
@p_w bra BAR
    add.s32 r_a, c_buf, r_o
    red.global.add.f32 [r_a], r_v
    add.s32 r_a, r_a, 256
    red.global.add.f32 [r_a], r_v
    add.s32 r_a, r_a, 256
    red.global.add.f32 [r_a], r_v
    mov.s32 r_one, 1
    st.global.s32 [c_flag], r_one
BAR:
    bar.sync
    ld.global.s32 r_f, [c_flag]
    add.s32 r_s, c_seen, r_o
    st.global.s32 [r_s], r_f
    exit
"""

_FENCE_THEN_BARRIER_PROG = """
    mov.s32 r_t, %tid
    mov.s32 r_w, %warpid
    shl.s32 r_o, r_t, 2
    setp.ne.s32 p_w, r_w, 1
@p_w bra SPIN
    mov.s32 r_one, 1
    st.global.s32 [c_buf], r_one
    membar.gl
    st.global.s32 [c_flag], r_one
    bra BAR
SPIN:
    nop 60
BAR:
    bar.sync
    ld.global.s32 r_f, [c_flag]
    add.s32 r_s, c_seen, r_o
    st.global.s32 [r_s], r_f
    exit
"""


def _flag_workload(source: str) -> Workload:
    """One 64-thread CTA that ends in ``bar.sync`` and then has every
    lane read ``flag``, which only warp 1 sets before the barrier."""
    mem = GlobalMemory()
    params = {
        "c_acc": mem.alloc("acc", 1, "f32"),
        "c_buf": mem.alloc("buf", 3 * 64, "f32"),
        "c_flag": mem.alloc("flag", 1, "s32"),
        "c_seen": mem.alloc("seen", 64, "s32"),
    }
    kernel = Kernel("flag", assemble(source), grid_dim=1, cta_dim=64,
                    params=params)
    return Workload(name="flag", mem=mem, kernels=[kernel], outputs=["seen"])


class TestBarrierRelease:
    """A CTA's bar.sync releases only once every live warp reached it.
    Only warp 1 runs before the last barrier, and it sets ``flag``:

    * second-barrier: between two barriers, 96 reds to distinct words
      (enough to fill a 64-entry buffer and force a flush), then the
      flag store.  A flush completing meanwhile must not release warp
      0, already waiting at the second barrier.
    * fence-then-barrier: warp 0 reaches the barrier while warp 1 waits
      at a membar, which is not an arrival.
    """

    @pytest.mark.parametrize("source", [_TWO_BARRIER_PROG,
                                        _FENCE_THEN_BARRIER_PROG],
                             ids=["second-barrier", "fence-then-barrier"])
    @pytest.mark.parametrize("dab,gpudet", [
        (None, None),
        (DABConfig.paper_default(), None),
        (DABConfig.warp_level(), None),
        (None, GPUDetConfig()),
    ], ids=["baseline", "dab", "dab-warp", "gpudet"])
    def test_final_memory_matches_oracle(self, source, dab, gpudet):
        want = run_oracle(lambda: _flag_workload(source)).memory
        wl = _flag_workload(source)
        gpu = GPU(GPUConfig.tiny(), wl.mem, dab=dab, gpudet=gpudet,
                  jitter=JitterSource(1))
        wl.drive(gpu)
        assert (want["seen"] == 1).all()
        for name, image in want.items():
            assert (wl.mem.buffer(name) == image).all(), name


_HANDSHAKE_PROG = """
    mov.s32 r_c, %ctaid
    setp.ne.s32 p_c, r_c, 0
@p_c bra READER
    mov.f32 r_v, 1.0
    red.global.add.f32 [c_x], r_v
    membar.gl
    mov.s32 r_one, 1
    st.global.s32 [c_flag], r_one
    exit
READER:
    ld.global.s32 r_f, [c_flag]
    setp.eq.s32 p_f, r_f, 0
@p_f bra READER
    ld.global.f32 r_x, [c_x]
    st.global.f32 [c_seen], r_x
    exit
"""


def _handshake_workload() -> Workload:
    """Two single-thread CTAs: CTA 0 runs ``red x; membar.gl; st flag,
    1``, CTA 1 spins on ``ld flag`` and then stores ``x`` to ``seen``."""
    mem = GlobalMemory()
    params = {
        "c_x": mem.alloc("x", 1, "f32"),
        "c_flag": mem.alloc("flag", 1, "s32"),
        "c_seen": mem.alloc("seen", 1, "f32"),
    }
    kernel = Kernel("handshake", assemble(_HANDSHAKE_PROG), grid_dim=2,
                    cta_dim=1, params=params)
    return Workload(name="handshake", mem=mem, kernels=[kernel],
                    outputs=["seen"])


class TestStarvedFence:
    """Under DAB the spinning reader is a live feeder of its (empty)
    buffer, so the fence flush never starts.  Counting an empty buffer
    as ready would make the flush's contents depend on when the reader
    reaches its next red, so until that livelock is settled the run
    must fail loudly: the cycle-limit error names the pending fence,
    when it was requested, and the buffer's live feeder."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dab_names_the_fence_and_the_live_feeder(self, seed):
        wl = _handshake_workload()
        gpu = GPU(GPUConfig.tiny(), wl.mem, dab=DABConfig.paper_default(),
                  jitter=JitterSource(seed), max_cycles=20000)
        with pytest.raises(SimulationError) as ei:
            wl.drive(gpu)
        msg = str(ei.value)
        assert msg.startswith("exceeded 20000 cycles: starved flush")
        assert "fence flush requested at cycle " in msg
        reader = next(w for sm in gpu.sms for w in sm.all_warps()
                      if w.cta.cta_id == 1)
        assert f"warp {reader.uid} (CTA 1, pc " in msg
        assert f"sm.{reader.sm_id}.sched.{reader.scheduler_id} (0 entries)" in msg

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("gpudet", [None, GPUDetConfig()],
                             ids=["baseline", "gpudet"])
    def test_other_architectures_see_the_red(self, seed, gpudet):
        wl = _handshake_workload()
        gpu = GPU(GPUConfig.tiny(), wl.mem, gpudet=gpudet,
                  jitter=JitterSource(seed), max_cycles=20000)
        wl.drive(gpu)
        assert wl.mem.buffer("seen")[0] == 1.0


class TestRelease:
    @pytest.mark.parametrize("arch", [ArchSpec.baseline(),
                                      ArchSpec.make_dab(),
                                      ArchSpec.make_gpudet()],
                             ids=["baseline", "dab", "gpudet"])
    def test_finished_run_frees_its_gpu_without_the_collector(
            self, arch, monkeypatch):
        """run_workload releases its GPU: the SMs die by reference
        counting, not at the next full cyclic collection."""
        sms = []
        init = GPU.__init__

        def spy(gpu, *args, **kwargs):
            init(gpu, *args, **kwargs)
            sms.extend(weakref.ref(sm) for sm in gpu.sms)

        monkeypatch.setattr(GPU, "__init__", spy)
        gc.disable()
        try:
            res = run_workload(lambda: build_atomic_sum(n=256), arch,
                               gpu_config=GPUConfig.tiny())
            assert sms and all(ref() is None for ref in sms)
        finally:
            gc.enable()
        assert res.instructions > 0
