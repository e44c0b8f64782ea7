"""Unit tests for CTA dispatch and SM slot placement."""

import pytest

from repro.arch.isa import assemble
from repro.arch.kernel import Kernel
from repro.config import GPUConfig
from repro.core.dab import DABConfig
from repro.memory.globalmem import GlobalMemory
from repro.sim.gpu import GPU
from repro.sim.nondet import JitterSource

PROG = assemble("    mov.s32 r_a, 1\n    exit")


def make_gpu(dab=None, config=None):
    return GPU(config or GPUConfig.tiny(), GlobalMemory(), dab=dab,
               jitter=JitterSource(1))


class TestDeterministicPlacement:
    def test_cta_to_sm_is_modular(self):
        gpu = make_gpu(dab=DABConfig.paper_default())
        kernel = Kernel("k", PROG, grid_dim=4, cta_dim=32)
        gpu.dispatcher.begin_kernel(kernel)
        gpu.dispatcher.place(0)
        # tiny: 2 SMs; CTA i -> SM i % 2
        for sm in gpu.sms:
            for w in sm.all_warps():
                assert w.cta.cta_id % len(gpu.sms) == sm.sm_id

    def test_warps_spread_across_schedulers(self):
        gpu = make_gpu(dab=DABConfig.paper_default())
        kernel = Kernel("k", PROG, grid_dim=2, cta_dim=128)  # 4 warps
        gpu.dispatcher.begin_kernel(kernel)
        gpu.dispatcher.place(0)
        sm = gpu.sms[0]
        scheds = sorted(w.scheduler_id for w in sm.all_warps())
        assert scheds == [0, 1, 2, 3]

    def test_batch_assignment(self):
        gpu = make_gpu(dab=DABConfig.paper_default())
        # tiny: 8 slots/SM; cta of 4 warps -> 2 CTAs per wave per SM
        kernel = Kernel("k", PROG, grid_dim=12, cta_dim=128)
        gpu.dispatcher.begin_kernel(kernel)
        gpu.dispatcher.place(0)
        sm = gpu.sms[0]
        batches = {w.cta.cta_id: w.batch for w in sm.all_warps()}
        # first two CTAs on this SM are batch 0
        assert set(batches.values()) == {0}

    def test_placement_waits_for_designated_slots(self):
        gpu = make_gpu(dab=DABConfig.paper_default())
        kernel = Kernel("k", PROG, grid_dim=20, cta_dim=128)
        gpu.dispatcher.begin_kernel(kernel)
        placed = gpu.dispatcher.place(0)
        # tiny SM holds 2 CTAs of 4 warps: 2 SMs x 2 = 4 CTAs resident
        assert placed == 4
        assert not gpu.dispatcher.all_dispatched

    def test_cta_too_large_rejected(self):
        gpu = make_gpu(dab=DABConfig.paper_default())
        kernel = Kernel("k", PROG, grid_dim=1, cta_dim=512)  # 16 warps > 8
        with pytest.raises(ValueError):
            gpu.dispatcher.begin_kernel(kernel)

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            Kernel("k", PROG, grid_dim=0, cta_dim=32)
        with pytest.raises(ValueError):
            Kernel("k", PROG, grid_dim=1, cta_dim=2048)


class TestBaselinePlacement:
    def test_greedy_fills_first_sm_first(self):
        gpu = make_gpu()
        kernel = Kernel("k", PROG, grid_dim=2, cta_dim=128)
        gpu.dispatcher.begin_kernel(kernel)
        gpu.dispatcher.place(0)
        assert gpu.sms[0].ctas_placed >= 1

    def test_all_ctas_eventually_dispatched(self):
        gpu = make_gpu()
        mem = gpu.mem
        b = mem.alloc("x", 1, "s32")
        prog = assemble("""
            mov.s32 r_one, 1
            red.global.add.s32 [c_x], r_one
            exit
        """)
        gpu.launch(Kernel("k", prog, grid_dim=10, cta_dim=64,
                          params={"c_x": b}))
        gpu.run()
        assert mem.buffer("x")[0] == 10 * 64


class TestSlotReuse:
    def test_retired_warp_writes_miss_new_occupant(self):
        gpu = make_gpu(dab=DABConfig.paper_default())
        # tiny: one 8-warp CTA fills an SM, so CTA 2 takes CTA 0's slots.
        kernel = Kernel("k", PROG, grid_dim=4, cta_dim=256)
        gpu.dispatcher.begin_kernel(kernel)
        gpu.dispatcher.place(0)
        sm = gpu.sms[0]
        retired = sm.all_warps()
        for w in retired:
            w.exited = True
        assert gpu.dispatcher.place(5) == 1
        occupants = sm.all_warps()
        assert {w.cta.cta_id for w in occupants} == {2}
        assert ({(w.scheduler_id, w.hw_slot) for w in occupants}
                == {(w.scheduler_id, w.hw_slot) for w in retired})

        soa = gpu.soa
        sm_rows = range(sm.row0, sm.row0 + sm.num_schedulers)

        def cells():
            return [list(getattr(soa, name)[r])
                    for name in ("ready_cycle", "out_loads", "out_atoms",
                                 "at_barrier", "active", "pc")
                    for r in sm_rows]

        before = cells()
        soa.sched_dirty[:] = [False] * len(soa.sched_dirty)
        soa.visit_dirty.clear()
        wakes = list(soa.warp_wake)
        # Late acks land on the retired warp objects.
        for i, w in enumerate(retired):
            w.ready_cycle = 1000 + i
            w.outstanding_loads = 3
            w.outstanding_stores = 7
        assert cells() == before
        # ... and wake no scheduler: an unbound warp records nothing.
        assert not any(soa.sched_dirty)
        assert not soa.visit_dirty
        assert soa.warp_wake == wakes
        assert [(w.ready_cycle, w.outstanding_loads, w.outstanding_stores)
                for w in retired] == [(1000 + i, 3, 7)
                                      for i in range(len(retired))]
        assert all((w.ready_cycle, w.outstanding_loads, w.outstanding_stores)
                   == (5, 0, 0) for w in occupants)


class TestRunnerHelpers:
    def test_archspec_labels(self):
        from repro.harness.runner import ArchSpec

        assert ArchSpec.baseline().label == "baseline"
        assert ArchSpec.make_gpudet().label == "GPUDet"
        assert "GWAT" in ArchSpec.make_dab().label

    def test_archspec_kind_validated(self):
        from repro.harness.runner import ArchSpec

        with pytest.raises(ValueError):
            ArchSpec("cpu")

    def test_run_workload_records_digest(self):
        from repro.harness.runner import ArchSpec, run_workload
        from repro.workloads.microbench import build_atomic_sum

        res = run_workload(lambda: build_atomic_sum(n=64),
                           ArchSpec.baseline(),
                           gpu_config=GPUConfig.tiny())
        assert "output_digest" in res.extra
        assert res.extra["workload"] == "atomic_sum_64"
