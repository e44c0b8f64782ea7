"""Unit tests for repro.faults.invariants: each invariant in the
catalog is deliberately violated and must raise a structured
InvariantViolation naming the invariant, cycle, and unit."""

import dataclasses

import pytest

from repro.arch.isa import assemble
from repro.arch.kernel import Kernel
from repro.config import GPUConfig
from repro.core.dab import DABConfig
from repro.faults import InvariantChecker, InvariantConfig, InvariantViolation
from repro.gpudet.gpudet import GPUDetConfig
from repro.memory.globalmem import GlobalMemory
from repro.sim.gpu import GPU
from repro.sim.sm import SM
from repro.workloads.microbench import build_atomic_sum


def make_checker(cycle=0, fault=None, **flags):
    chk = InvariantChecker(
        InvariantConfig(**flags) if flags else None,
        fault_source=(lambda: fault) if fault is not None else None,
    )
    chk.cycle = cycle
    return chk


class TestBufferCapacity:
    def test_overflow_raises_with_payload(self):
        chk = make_checker(cycle=123)
        with pytest.raises(InvariantViolation) as ei:
            chk.check_buffer_occupancy("sm.2.sched.1", 65, 64)
        v = ei.value
        assert v.invariant == "buffer_capacity"
        assert v.cycle == 123
        assert v.unit == "sm.2.sched.1"
        assert "65" in v.detail and "64" in v.detail
        assert chk.violations == 1

    def test_at_capacity_is_fine(self):
        chk = make_checker()
        chk.check_buffer_occupancy("sm.0.red.0", 64, 64)
        assert chk.checks == 1
        assert chk.violations == 0

    def test_gated_off_by_config(self):
        chk = make_checker(buffer_capacity=False)
        chk.check_buffer_occupancy("b", 99, 1)  # no raise


class TestBatchOrder:
    def test_future_batch_raises(self):
        chk = make_checker(cycle=77)
        with pytest.raises(InvariantViolation) as ei:
            chk.check_batch_order(3, warp_batch=2, current_batch=1)
        v = ei.value
        assert v.invariant == "batch_order"
        assert v.cycle == 77
        assert v.unit == "sm.3"

    def test_current_and_past_batches_fine(self):
        chk = make_checker()
        chk.check_batch_order(0, warp_batch=1, current_batch=1)
        chk.check_batch_order(0, warp_batch=0, current_batch=1)
        assert chk.violations == 0


class TestFlushCounts:
    def test_arrival_outside_any_round(self):
        chk = make_checker(cycle=10)
        with pytest.raises(InvariantViolation) as ei:
            chk.on_flush_arrival(0, 1)
        assert ei.value.invariant == "flush_counts"
        assert ei.value.unit == "partition.0"
        assert "outside" in ei.value.detail

    def test_unannounced_sm(self):
        chk = make_checker(cycle=11)
        chk.begin_flush_round(2, {0: 2, 1: 1})
        with pytest.raises(InvariantViolation) as ei:
            chk.on_flush_arrival(2, 5)
        assert ei.value.unit == "partition.2"
        assert "unannounced sm 5" in ei.value.detail

    def test_over_announce(self):
        chk = make_checker(cycle=12)
        chk.begin_flush_round(0, {1: 1})
        chk.on_flush_arrival(0, 1)
        with pytest.raises(InvariantViolation) as ei:
            chk.on_flush_arrival(0, 1)
        assert "more entries than announced" in ei.value.detail
        assert "expected 1" in ei.value.detail

    def test_new_round_over_incomplete_round(self):
        chk = make_checker(cycle=13)
        chk.begin_flush_round(1, {0: 2})
        chk.on_flush_arrival(1, 0)
        with pytest.raises(InvariantViolation) as ei:
            chk.begin_flush_round(1, {0: 1})
        assert ei.value.unit == "partition.1"
        assert "previous round incomplete" in ei.value.detail
        assert "sm 0: got 1/2" in ei.value.detail

    def test_late_arrival(self):
        chk = make_checker(cycle=14)
        with pytest.raises(InvariantViolation) as ei:
            chk.on_late_arrival(3, 2)
        assert ei.value.unit == "partition.3"
        assert "after its flush completed" in ei.value.detail

    def test_deadlock_postmortem_names_short_round(self):
        chk = make_checker()
        chk.begin_flush_round(0, {0: 3, 1: 1})
        chk.on_flush_arrival(0, 0)
        chk.on_flush_arrival(0, 1)
        with pytest.raises(InvariantViolation) as ei:
            chk.explain_deadlock(999, None)
        v = ei.value
        assert v.invariant == "flush_counts"
        assert v.cycle == 999
        assert v.unit == "partition.0"
        assert "sm 0: got 1/3" in v.detail

    def test_complete_rounds_quiet(self):
        chk = make_checker()
        chk.begin_flush_round(0, {0: 1, 1: 1})
        chk.on_flush_arrival(0, 0)
        chk.on_flush_arrival(0, 1)
        chk.explain_deadlock(50, None)  # nothing incomplete: no raise
        chk.begin_flush_round(0, {0: 1})  # next round over a complete one
        assert chk.violations == 0


class TestRopOrder:
    def test_out_of_order_release_raises(self):
        chk = make_checker(cycle=21)
        chk.begin_flush_round(0, {0: 2, 1: 1})
        # round-robin across SMs: (0,0), (1,0), (0,1)
        chk.on_flush_release(0, 0, 0)
        with pytest.raises(InvariantViolation) as ei:
            chk.on_flush_release(0, 0, 1)  # should be (1, 0)
        v = ei.value
        assert v.invariant == "rop_order"
        assert v.unit == "partition.0"
        assert "(sm 1, seq 0)" in v.detail

    def test_in_order_release_quiet(self):
        chk = make_checker()
        chk.begin_flush_round(0, {0: 2, 1: 1})
        for sm, seq in ((0, 0), (1, 0), (0, 1)):
            chk.on_flush_release(0, sm, seq)
        assert chk.violations == 0

    def test_gated_off_by_config(self):
        chk = make_checker(rop_order=False)
        chk.begin_flush_round(0, {0: 1, 1: 1})
        chk.on_flush_release(0, 1, 0)  # wrong order, but not armed
        assert chk.violations == 0


class TestViolationPayload:
    def test_fault_blame_appended(self):
        chk = make_checker(cycle=5, fault="drop of flush txn from sm 1 "
                                          "to partition 0 (fault seed 7)")
        with pytest.raises(InvariantViolation) as ei:
            chk.check_buffer_occupancy("b", 2, 1)
        assert ei.value.fault is not None
        assert "active fault: drop" in str(ei.value)

    def test_message_shape(self):
        chk = make_checker(cycle=42)
        with pytest.raises(InvariantViolation) as ei:
            chk.check_buffer_occupancy("sm.0.red.1", 9, 8)
        assert str(ei.value).startswith(
            "invariant 'buffer_capacity' violated at cycle 42 in sm.0.red.1"
        )

    def test_is_runtime_error(self):
        assert issubclass(InvariantViolation, RuntimeError)

    def test_checks_counter_counts_all_sites(self):
        chk = make_checker()
        chk.check_buffer_occupancy("b", 0, 4)
        chk.check_batch_order(0, 0, 0)
        chk.begin_flush_round(0, {0: 1})
        chk.on_flush_arrival(0, 0)
        chk.on_flush_release(0, 0, 0)
        assert chk.checks == 5


def placed_gpu(dab=None):
    """An armed tiny GPU right after its first CTAs were placed: every
    placed warp is ready at cycle 0, with its scheduler dirty and its SM
    on the visit agenda, so all ``wake`` checks pass."""
    workload = build_atomic_sum(n=512, cta_dim=128)
    gpu = GPU(GPUConfig.tiny(), workload.mem, dab=dab, invariants=True)
    gpu.launch(workload.kernels[0])
    gpu._start_next_kernel()
    assert gpu.dispatcher.place(0)
    gpu.inv.check_issue_agenda(gpu, 0)
    gpu.inv.check_fast_forward(gpu, 0, 1)
    return gpu


def first_warp(gpu, sm_id=0):
    """``(warp, row, col)`` of the first placed warp on ``sm_id``."""
    sm = gpu.sms[sm_id]
    for s, table in enumerate(sm.sched_slots):
        for i, w in enumerate(table):
            if w is not None:
                return w, sm.row0 + s, i
    raise AssertionError("no placed warp")


def raises_wake(check, *args):
    with pytest.raises(InvariantViolation) as ei:
        check(*args)
    assert ei.value.invariant == "wake"
    return ei.value


class TestWake:
    """Each test plants one fault that only its own check can see."""

    def test_ready_warp_with_clean_scheduler(self):
        gpu = placed_gpu()
        w, row, _ = first_warp(gpu)
        gpu.soa.sched_dirty[row] = False  # a lost wake-up
        v = raises_wake(gpu.inv.check_issue_agenda, gpu, 0)
        assert v.unit == f"sm.0.sched.{w.scheduler_id}"
        assert f"warp {w.uid} ready" in v.detail

    def test_dirty_scheduler_off_the_agenda(self):
        gpu = placed_gpu()
        for w in gpu.sms[0].all_warps():
            w.ready_cycle = 5  # nothing ready: only the agenda is wrong
        gpu.soa.visit_dirty.discard(0)
        v = raises_wake(gpu.inv.check_issue_agenda, gpu, 0)
        assert v.unit == "sm.0.sched.0"
        assert "off the visit agenda" in v.detail

    @pytest.mark.parametrize("cell", ["pc", "active"])
    def test_stale_row_cache(self, cell):
        gpu = placed_gpu()
        w, row, col = first_warp(gpu, sm_id=1)
        if cell == "pc":
            gpu.soa.pc[row][col] += 1
        else:
            gpu.soa.active[row][col] = False
        v = raises_wake(gpu.inv.check_issue_agenda, gpu, 0)
        assert v.unit == f"sm.1.sched.{w.scheduler_id}"
        assert f"warp {w.uid}: {cell} cell" in v.detail

    def test_stale_live_slots(self):
        gpu = placed_gpu()
        w, _, col = first_warp(gpu, sm_id=1)
        gpu.sms[1].rows[w.scheduler_id].live.remove(col)  # a lost exit
        v = raises_wake(gpu.inv.check_issue_agenda, gpu, 0)
        assert v.unit == f"sm.1.sched.{w.scheduler_id}"
        assert "live slots" in v.detail

    def test_placement_order_out_of_uid_order(self):
        gpu = placed_gpu()
        row = next(r for r in gpu.sms[0].rows if len(r.order) > 1)
        row.order.reverse()
        v = raises_wake(gpu.inv.check_issue_agenda, gpu, 0)
        assert "placement order" in v.detail

    @pytest.mark.parametrize("counter",
                             ["buf_nonempty_count", "buf_full_count"])
    def test_skewed_buffer_counter(self, counter):
        gpu = placed_gpu(dab=DABConfig())
        setattr(gpu.soa, counter, getattr(gpu.soa, counter) + 1)
        v = raises_wake(gpu.inv.check_issue_agenda, gpu, 0)
        assert v.unit == "buffers"

    def test_fast_forward_past_a_wake(self):
        gpu = placed_gpu()
        w, _, _ = first_warp(gpu, sm_id=1)
        w.ready_cycle = 10
        gpu.inv.check_fast_forward(gpu, 0, 10)  # lands on the wake: fine
        v = raises_wake(gpu.inv.check_fast_forward, gpu, 0, 11)
        assert v.unit == f"sm.1.sched.{w.scheduler_id}"
        assert "wakes at cycle 10" in v.detail
        assert "jumps to cycle 11" in v.detail
        v = raises_wake(gpu.inv.check_fast_forward, gpu, 0, None)
        assert "declares a deadlock" in v.detail

    def test_checks_are_counted_and_need_no_config_flag(self):
        gpu = placed_gpu()
        gpu.inv.config = InvariantConfig(
            flush_counts=False, buffer_capacity=False, batch_order=False,
            rop_order=False)
        before = gpu.inv.checks
        gpu.inv.check_issue_agenda(gpu, 0)
        gpu.inv.check_fast_forward(gpu, 0, 1)
        assert gpu.inv.checks == before + 2
        gpu.soa.sched_dirty[first_warp(gpu)[1]] = False
        raises_wake(gpu.inv.check_issue_agenda, gpu, 0)


def gate_sleeper():
    """An armed tiny DAB GPU whose placed warps all wait at a red (pc 0),
    with SM 0's scheduler 0 put to sleep on the ``flush`` gate while a
    flush is in flight: ``(gpu, row)``."""
    mem = GlobalMemory()
    x = mem.alloc("x", 1, "f32")
    kernel = Kernel("red", assemble("""
        red.global.add.f32 [c_x], 1.0
        exit
    """), grid_dim=4, cta_dim=64, params={"c_x": x})
    gpu = GPU(GPUConfig.tiny(), mem, dab=DABConfig(), invariants=True)
    gpu.launch(kernel)
    gpu._start_next_kernel()
    assert gpu.dispatcher.place(0)
    gpu.flush._active[-1] = {}  # a flush in flight closes the gate
    sm = gpu.sms[0]
    sm._acct_reason[0] = "flush"
    sm._acct_epoch[0] = 1
    gpu.soa.sched_dirty[sm.row0] = False
    gpu.soa.gate_sleepers.add(sm.row0)
    return gpu, sm.row0


class TestGateSleepWake:
    """A scheduler asleep on an atomic-issue gate is exempt from the
    ready-warp check only while each ready warp's gate, recomputed,
    is still closed with the reason its window books."""

    def test_sleeper_exempt_while_its_gate_holds(self):
        gpu, _ = gate_sleeper()
        gpu.inv.check_issue_agenda(gpu, 0)

    def test_gate_opened_under_a_sleeper(self):
        gpu, _ = gate_sleeper()
        gpu.flush._active.clear()  # the flush ended; nobody woke it
        v = raises_wake(gpu.inv.check_issue_agenda, gpu, 0)
        assert v.unit == "sm.0.sched.0"
        assert "sleeps on 'flush' while the warp's gate is 'open'" in v.detail

    def test_sleeper_books_another_gate(self):
        gpu, _ = gate_sleeper()
        gpu.sms[0]._acct_reason[0] = "buffer_full"  # a lost flush-start wake
        v = raises_wake(gpu.inv.check_issue_agenda, gpu, 0)
        assert "sleeps on 'buffer_full' while the warp's gate is 'flush'" \
            in v.detail

    def test_sleeper_with_a_warp_past_its_atomic(self):
        gpu, row = gate_sleeper()
        w = next(w for w in gpu.sms[0].sched_slots[0] if w is not None)
        w.step(gpu.mem)  # issued the red behind the scheduler's back
        gpu.soa.sched_dirty[row] = False
        v = raises_wake(gpu.inv.check_issue_agenda, gpu, 0)
        assert f"warp {w.uid} ready" in v.detail
        assert "gate is 'no atomic'" in v.detail


#: one scheduler per SM: a CTA's warps share a row.
ONE_SCHED = dataclasses.replace(GPUConfig.tiny(), num_schedulers_per_sm=1)


def inorder_sleeper():
    """An armed tiny SRR GPU with one scheduler per SM, after its first
    CTAs were placed: SM 0's row holds warps at a red (pc 0), asleep on
    the ``flush`` gate while a flush is in flight.  The warp in slot 1
    issued its red behind the scheduler's back and is ready at ``exit``;
    the in-order warp (slot 0) waits at its gated red: ``(gpu, w1)``."""
    mem = GlobalMemory()
    x = mem.alloc("x", 1, "f32")
    kernel = Kernel("red", assemble("""
        red.global.add.f32 [c_x], 1.0
        exit
    """), grid_dim=4, cta_dim=64, params={"c_x": x})
    gpu = GPU(ONE_SCHED, mem, dab=DABConfig(scheduler="srr"),
              invariants=True)
    gpu.launch(kernel)
    gpu._start_next_kernel()
    assert gpu.dispatcher.place(0)
    gpu.flush._active[-1] = {}  # a flush in flight closes the gate
    sm = gpu.sms[0]
    w1 = sm.sched_slots[0][1]
    w1.step(gpu.mem)
    assert not w1.next_is_atomic()
    sm._acct_reason[0] = "flush"
    sm._acct_epoch[0] = 1
    gpu.soa.sched_dirty[sm.row0] = False
    gpu.soa.gate_sleepers.add(sm.row0)
    return gpu, w1


class TestInorderSleepWake:
    """An SRR scheduler asleep on a gate is exempt for every ready warp
    only while its in-order warp, named by the policy from recomputed
    gates, waits at an atomic closed with the reason its window books."""

    def test_other_ready_warps_exempt_while_the_inorder_gate_holds(self):
        gpu, _ = inorder_sleeper()
        gpu.inv.check_issue_agenda(gpu, 0)

    def test_inorder_gate_opened_under_the_sleeper(self):
        gpu, _ = inorder_sleeper()
        gpu.flush._active.clear()  # the flush ended; nobody woke it
        v = raises_wake(gpu.inv.check_issue_agenda, gpu, 0)
        assert "sleeps on 'flush' while the warp's gate is 'open'" in v.detail

    def test_inorder_slot_moved_past_the_gated_warp(self):
        gpu, w1 = inorder_sleeper()
        gpu.sms[0].schedulers[0]._ptr = 1  # slot 1 is next in order
        v = raises_wake(gpu.inv.check_issue_agenda, gpu, 0)
        assert f"warp {w1.uid} ready" in v.detail
        assert "gate is 'no atomic'" in v.detail


def held_sleeper():
    """An armed tiny GPUDet GPU with one scheduler per SM, after its
    first CTAs were placed, whose SM 0 scheduler sleeps held: its window
    books ``mem`` and GPUDet ended the quantum of every warp on the
    row: ``(gpu, sm)``."""
    workload = build_atomic_sum(n=512, cta_dim=128)
    gpu = GPU(ONE_SCHED, workload.mem, gpudet=GPUDetConfig(),
              invariants=True)
    gpu.launch(workload.kernels[0])
    gpu._start_next_kernel()
    assert gpu.dispatcher.place(0)
    sm = gpu.sms[0]
    for w in sm.sched_slots[0]:
        if w is not None:
            gpu.gpudet._live[w.uid].reason = "budget"
    sm._acct_reason[0] = "mem"
    sm._acct_epoch[0] = 1
    gpu.soa.sched_dirty[sm.row0] = False
    return gpu, sm


class TestHeldSleepWake:
    """A GPUDet scheduler asleep on ``mem`` with ready warps is exempt
    only while ``GPUDetController.holds`` says GPUDet holds each one."""

    def test_held_sleeper_exempt_while_gpudet_holds(self):
        gpu, _ = held_sleeper()
        gpu.inv.check_issue_agenda(gpu, 0)

    def test_held_sleeper_whose_warp_may_issue(self):
        gpu, sm = held_sleeper()
        w = next(w for w in sm.sched_slots[0] if w is not None)
        gpu.gpudet._live[w.uid].reason = None  # a quantum reset, no wake
        assert not gpu.gpudet.holds(w)
        v = raises_wake(gpu.inv.check_issue_agenda, gpu, 0)
        assert f"warp {w.uid} ready" in v.detail
        assert "GPUDet holds the warp no longer" in v.detail

    def test_held_sleeper_booking_another_window(self):
        gpu, sm = held_sleeper()
        sm._acct_reason[0] = "barrier"  # not what select books here
        v = raises_wake(gpu.inv.check_issue_agenda, gpu, 0)
        assert "will not be examined" in v.detail


class TestIssueSleepWake:
    def test_row_left_clean_after_an_issue_with_a_ready_warp(
            self, monkeypatch):
        # A post-issue sleep that ignores the row's other ready warps.
        monkeypatch.setattr(SM, "_issue_sleep",
                            lambda sm, row, now: "mem" if row.live else "")
        workload = build_atomic_sum(n=512, cta_dim=128)
        gpu = GPU(ONE_SCHED, workload.mem, invariants=True)
        with pytest.raises(InvariantViolation) as ei:
            workload.drive(gpu)
        assert ei.value.invariant == "wake"
        assert "will not be examined" in ei.value.detail
