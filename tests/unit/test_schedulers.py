"""Unit tests for the determinism-aware warp schedulers.

These drive scheduler policies directly with synthetic scheduler rows
(no full simulation), checking the ordering rules of paper Fig 7 and
the gate/stall reporting contract.
"""

import pytest

from repro.arch.kernel import CTA, Kernel
from repro.arch.isa import assemble
from repro.arch.warp import Warp
from repro.core.schedulers import (
    GTARScheduler,
    GTOScheduler,
    GTRRScheduler,
    GWATScheduler,
    SRRScheduler,
    STALL_EMPTY,
    STALL_GATE_BATCH,
    STALL_GATE_BUFFER,
    STALL_INORDER,
    STALL_MEM,
    STALL_ROUND,
    STALL_TOKEN,
    SchedRow,
    make_scheduler,
    POLICY_NAMES,
)

_PROG = assemble("    exit")
_KERNEL = Kernel("t", _PROG, grid_dim=64, cta_dim=32)


def mk_warp(uid, slot, batch=0, launched=0):
    cta = CTA(kernel=_KERNEL, cta_id=uid)
    cta.batch = batch
    w = Warp(uid=uid, cta=cta, warp_id_in_cta=0, warp_size=32,
             scheduler_id=0, hw_slot=slot)
    w.launched_cycle = launched
    return w


def st(warp, ready=True, barrier=False, atomic=False, gate=""):
    """One slot's state: ``gate`` names the external gate blocking the
    warp's next atomic ("" = open)."""
    return warp, ready, barrier, atomic, gate


def row(*slots):
    """A scheduler row holding ``slots`` (``st`` tuples, None = empty):
    a not-ready warp has a load outstanding, pc 1 is an atomic, and
    placement order is (launch cycle, uid) order."""
    n = len(slots)
    warps = [s[0] if s else None for s in slots]
    r = SchedRow(
        warps,
        act=[w is not None and not w.done for w in warps],
        bar=[bool(s and s[2]) for s in slots],
        rc=[0] * n,
        ol=[int(bool(s and not s[1])) for s in slots],
        oa=[0] * n,
        pc=[int(bool(s and s[3])) for s in slots],
    )
    r.atomic = (False, True)
    r.live = [i for i in range(n) if r.act[i]]
    r.order = sorted(r.live, key=lambda i: (warps[i].launched_cycle,
                                            warps[i].uid))
    for i in r.live:
        if r.pc[i] and not r.bar[i] and slots[i][4]:
            r.gated[i] = slots[i][4]
    return r


def row_of(warps):
    """The row of ``warps`` as they stand (ready, not at an atomic)."""
    return row(*(st(w, barrier=w.at_barrier) for w in warps))


class TestFactory:
    def test_all_policy_names(self):
        for name in POLICY_NAMES:
            assert make_scheduler(name, 4).name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("fifo", 4)

    def test_determinism_flags(self):
        assert not make_scheduler("gto", 4).deterministic_atomics
        for name in ("srr", "gtrr", "gtar", "gwat"):
            assert make_scheduler(name, 4).deterministic_atomics


class TestGTO:
    def test_prefers_last_issued(self):
        s = GTOScheduler(2)
        w0, w1 = mk_warp(1, 0, launched=0), mk_warp(2, 1, launched=0)
        pick, _ = s.select(0, row(st(w0), st(w1)))
        assert pick is w0  # oldest (uid tiebreak)
        pick, _ = s.select(1, row(st(w0), st(w1)))
        assert pick is w0  # greedy on same warp

    def test_falls_back_to_oldest(self):
        s = GTOScheduler(2)
        w0, w1 = mk_warp(1, 0, launched=5), mk_warp(2, 1, launched=0)
        pick, _ = s.select(0, row(st(w0), st(w1)))
        assert pick is w1  # older launch wins

    def test_empty_reason(self):
        s = GTOScheduler(2)
        assert s.select(0, row(None, None)) == (None, STALL_EMPTY)

    def test_mem_reason(self):
        s = GTOScheduler(1)
        w = mk_warp(1, 0)
        assert s.select(0, row(st(w, ready=False))) == (None, STALL_MEM)


class TestSRR:
    def test_round_robin_order(self):
        s = SRRScheduler(3)
        warps = [mk_warp(i + 1, i) for i in range(3)]
        order = []
        for cyc in range(6):
            pick, _ = s.select(cyc, row(*(st(w) for w in warps)))
            order.append(pick.uid)
        assert order == [1, 2, 3, 1, 2, 3]

    def test_stalled_inorder_warp_blocks(self):
        s = SRRScheduler(2)
        w0, w1 = mk_warp(1, 0), mk_warp(2, 1)
        pick, reason = s.select(0, row(st(w0, ready=False), st(w1)))
        assert pick is None and reason == STALL_INORDER

    def test_barrier_warp_is_skipped(self):
        s = SRRScheduler(2)
        w0, w1 = mk_warp(1, 0), mk_warp(2, 1)
        pick, _ = s.select(0, row(st(w0, barrier=True), st(w1)))
        assert pick is w1

    def test_exited_warp_is_skipped(self):
        s = SRRScheduler(2)
        w0, w1 = mk_warp(1, 0), mk_warp(2, 1)
        w0.exited = True
        pick, _ = s.select(0, row(st(w0), st(w1)))
        assert pick is w1

    def test_batch_gated_warp_is_skipped(self):
        s = SRRScheduler(2)
        w0, w1 = mk_warp(1, 0, batch=1), mk_warp(2, 1, batch=0)
        pick, _ = s.select(0, row(
            st(w0, atomic=True, gate=STALL_GATE_BATCH),
            st(w1),
        ))
        assert pick is w1

    def test_buffer_gated_reports_and_marks(self):
        s = SRRScheduler(1)
        w = mk_warp(1, 0)
        pick, reason = s.select(0, row(
            st(w, atomic=True, gate=STALL_GATE_BUFFER)
        ))
        assert pick is None and reason == STALL_GATE_BUFFER
        assert s.gate_blocked_warp is w


class TestGTRR:
    def test_starts_in_gto_and_blocks_atomics(self):
        s = GTRRScheduler(2)
        w0, w1 = mk_warp(1, 0), mk_warp(2, 1)
        pick, reason = s.select(0, row(st(w0, atomic=True), st(w1, atomic=True)))
        # mode switch happens, SRR takes over and issues in order
        assert s.mode == "srr"
        assert pick is w0

    def test_no_switch_while_non_atomic_work_remains(self):
        s = GTRRScheduler(2)
        w0, w1 = mk_warp(1, 0), mk_warp(2, 1)
        pick, _ = s.select(0, row(st(w0, atomic=True), st(w1)))
        assert s.mode == "gto"
        assert pick is w1  # non-atomic warp runs; atomic stalls

    def test_atomic_stalls_with_round_reason_in_gto(self):
        s = GTRRScheduler(2)
        w0, w1 = mk_warp(1, 0), mk_warp(2, 1)
        pick, reason = s.select(0, row(st(w0, atomic=True), st(w1, ready=False)))
        assert s.mode == "gto"
        assert pick is None and reason == STALL_ROUND

    def test_reset_restores_gto(self):
        s = GTRRScheduler(1)
        w = mk_warp(1, 0)
        s.select(0, row(st(w, atomic=True)))
        assert s.mode == "srr"
        s.reset_for_drain()
        assert s.mode == "gto"


class TestGTAR:
    def test_round_opens_when_all_blocked(self):
        s = GTARScheduler(2)
        w0, w1 = mk_warp(1, 0), mk_warp(2, 1)
        pick, _ = s.select(0, row(st(w0, atomic=True), st(w1, atomic=True)))
        assert s.round_open or pick is not None
        assert pick is w0  # slot order

    def test_atomics_issue_in_slot_order(self):
        s = GTARScheduler(3)
        warps = [mk_warp(i + 1, i) for i in range(3)]
        sts = [st(w, atomic=True) for w in warps]
        issued = []
        for cyc in range(3):
            pick, _ = s.select(cyc, row(*sts))
            issued.append(pick.uid)
            sts[pick.hw_slot] = st(pick)  # its atomic done; now non-atomic
        assert issued == [1, 2, 3]

    def test_batch_major_round_order(self):
        s = GTARScheduler(2)
        w0, w1 = mk_warp(1, 0, batch=1), mk_warp(2, 1, batch=0)
        pick, _ = s.select(0, row(st(w0, atomic=True), st(w1, atomic=True)))
        assert pick is w1  # lower batch first despite higher slot

    def test_non_atomic_work_runs_during_round(self):
        s = GTARScheduler(2)
        w0, w1 = mk_warp(1, 0), mk_warp(2, 1)
        # open a round with both pending
        pick, _ = s.select(0, row(st(w0, atomic=True), st(w1, atomic=True)))
        assert pick is w0
        # w0 now does non-atomic work while w1's atomic is head
        pick, _ = s.select(1, row(st(w0, ready=True), st(w1, atomic=True, ready=False)))
        assert pick is w0

    def test_new_atomic_waits_for_next_round(self):
        s = GTARScheduler(2)
        w0, w1 = mk_warp(1, 0), mk_warp(2, 1)
        pick, _ = s.select(0, row(st(w0, atomic=True), st(w1, atomic=True)))
        assert pick is w0
        # w0 reaches another atomic while w1 is still round head:
        pick, _ = s.select(1, row(st(w0, atomic=True), st(w1, atomic=True)))
        assert pick is w1  # head first; w0 must wait for next round


class TestGWAT:
    def mk_three(self):
        warps = [mk_warp(i + 1, i) for i in range(3)]
        s = GWATScheduler(3)
        for w in warps:
            s.notify_warp_added(row_of(warps), w.hw_slot)
        return s, warps

    def test_initial_token_at_first_added(self):
        s, warps = self.mk_three()
        assert s.token_slot == 0

    def test_only_holder_issues_atomic(self):
        s, warps = self.mk_three()
        sts = [st(w, atomic=True) for w in warps]
        pick, _ = s.select(0, row(*sts))
        assert pick is warps[0]
        assert s.token_slot == 1  # passed on issue

    def test_non_holder_atomic_stalls_on_token(self):
        s, warps = self.mk_three()
        sts = [st(warps[0], ready=False),
               st(warps[1], atomic=True),
               st(warps[2], ready=False)]
        pick, reason = s.select(0, row(*sts))
        assert pick is None and reason == STALL_TOKEN

    def test_non_atomic_work_flows_freely(self):
        s, warps = self.mk_three()
        sts = [st(warps[0], ready=False), st(warps[1]), st(warps[2])]
        pick, _ = s.select(0, row(*sts))
        assert pick in (warps[1], warps[2])

    def test_token_passes_on_exit(self):
        s, warps = self.mk_three()
        warps[0].exited = True
        s.notify_exit(row_of(warps), 0)
        assert s.token_slot == 1

    def test_token_passes_on_barrier(self):
        s, warps = self.mk_three()
        warps[0].at_barrier = True
        s.notify_barrier(row_of(warps), 0)
        assert s.token_slot == 1

    def test_token_prefers_lower_batch(self):
        warps = [mk_warp(1, 0, batch=0), mk_warp(2, 1, batch=1),
                 mk_warp(3, 2, batch=0)]
        s = GWATScheduler(3)
        for w in warps:
            s.notify_warp_added(row_of(warps), w.hw_slot)
        warps[0].exited = True
        s.notify_exit(row_of(warps), 0)
        assert s.token_slot == 2  # batch 0 beats closer slot 1 (batch 1)

    def test_barrier_release_reclaims_from_later_batch(self):
        warps = [mk_warp(1, 0, batch=1), mk_warp(2, 1, batch=0)]
        s = GWATScheduler(2)
        s.notify_warp_added(row_of(warps), 0)
        # token stuck at slot 0 (batch 1); slot 1 (batch 0) released
        s.notify_barrier_release(row_of(warps), 1)
        assert s.token_slot == 1

    def test_holder_gated_on_buffer_keeps_token(self):
        s, warps = self.mk_three()
        sts = [st(warps[0], atomic=True, gate=STALL_GATE_BUFFER),
               st(warps[1], ready=False), st(warps[2], ready=False)]
        pick, reason = s.select(0, row(*sts))
        assert pick is None and reason == STALL_GATE_BUFFER
        assert s.token_slot == 0
        assert s.gate_blocked_warp is warps[0]
