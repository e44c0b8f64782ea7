"""Property-based tests for scheduler policies under random row state
sequences: no policy may issue a warp that could not issue, and the
deterministic policies must keep their ordering invariants."""

from hypothesis import given, settings, strategies as st

from repro.arch.isa import assemble
from repro.arch.kernel import CTA, Kernel
from repro.arch.warp import Warp
from repro.core.schedulers import (
    STALL_GATE_BUFFER,
    SchedRow,
    make_scheduler,
)

_PROG = assemble("    exit")
_KERNEL = Kernel("t", _PROG, grid_dim=64, cta_dim=32)


def mk_warp(uid, slot, batch=0):
    cta = CTA(kernel=_KERNEL, cta_id=uid)
    cta.batch = batch
    w = Warp(uid=uid, cta=cta, warp_id_in_cta=0, warp_size=32,
             scheduler_id=0, hw_slot=slot)
    return w


status_bits = st.tuples(
    st.booleans(),   # ready
    st.booleans(),   # at_barrier
    st.booleans(),   # next_atomic
    st.booleans(),   # gate_ok
)


def mk_row(warps, bits):
    """A row of live ``warps``: a not-ready warp has a load outstanding,
    pc 1 is an atomic, and a closed gate blocks an atomic not at a
    barrier (as the SM's consult pass reports it)."""
    n = len(warps)
    r = SchedRow(warps, act=[True] * n,
                 bar=[barrier for _, barrier, _, _ in bits],
                 rc=[0] * n, ol=[int(not ready) for ready, *_ in bits],
                 oa=[0] * n, pc=[int(atomic) for _, _, atomic, _ in bits])
    r.atomic = (False, True)
    r.live = list(range(n))
    r.order = list(range(n))
    for i, (_, barrier, atomic, gate_ok) in enumerate(bits):
        if atomic and not barrier and not gate_ok:
            r.gated[i] = STALL_GATE_BUFFER
    return r


@st.composite
def status_sequences(draw):
    nslots = draw(st.integers(1, 6))
    steps = draw(st.lists(
        st.lists(status_bits, min_size=nslots, max_size=nslots),
        min_size=1, max_size=12,
    ))
    return nslots, steps


class TestPolicySafety:
    @given(st.sampled_from(["gto", "srr", "gtrr", "gtar", "gwat"]),
           status_sequences())
    @settings(max_examples=120, deadline=None)
    def test_never_issues_unissuable_warp(self, name, seq):
        nslots, steps = seq
        warps = [mk_warp(i + 1, i) for i in range(nslots)]
        sched = make_scheduler(name, nslots)
        for bits in steps:
            row = mk_row(warps, bits)
            pick, reason = sched.select(0, row)
            if pick is None:
                assert isinstance(reason, str) and reason
                continue
            i = pick.hw_slot
            assert row.ready(i, 0)
            assert not row.bar[i]
            if row.atomic[row.pc[i]]:
                assert i not in row.gated, (
                    f"{name} issued a gate-blocked atomic warp"
                )

    @given(status_sequences())
    @settings(max_examples=60, deadline=None)
    def test_gwat_atomics_follow_token(self, seq):
        nslots, steps = seq
        warps = [mk_warp(i + 1, i) for i in range(nslots)]
        sched = make_scheduler("gwat", nslots)
        placed = mk_row(warps, [(True, False, False, True)] * nslots)
        for w in warps:
            sched.notify_warp_added(placed, w.hw_slot)
        for bits in steps:
            row = mk_row(warps, bits)
            token_before = sched.token_slot
            pick, _ = sched.select(0, row)
            if pick is not None and row.atomic[row.pc[pick.hw_slot]]:
                assert pick.hw_slot == token_before

    @given(status_sequences())
    @settings(max_examples=60, deadline=None)
    def test_srr_pointer_stays_in_range(self, seq):
        nslots, steps = seq
        warps = [mk_warp(i + 1, i) for i in range(nslots)]
        sched = make_scheduler("srr", nslots)
        for bits in steps:
            sched.select(0, mk_row(warps, bits))
            assert 0 <= sched._ptr < nslots

    @given(status_sequences())
    @settings(max_examples=60, deadline=None)
    def test_gtar_pending_uids_are_live_or_dropped(self, seq):
        nslots, steps = seq
        warps = [mk_warp(i + 1, i) for i in range(nslots)]
        sched = make_scheduler("gtar", nslots)
        uids = {w.uid for w in warps}
        for bits in steps:
            sched.select(0, mk_row(warps, bits))
            assert {uid for _slot, uid in sched._pending} <= uids
            assert sched._round_open == bool(sched._pending) or not sched._round_open
