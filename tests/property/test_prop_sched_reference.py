"""Property: row-based scheduler policies equal the record-based reference.

Each example drives one policy of :mod:`repro.core.schedulers` and its
record-based predecessor (:mod:`tests.property.sched_reference`) side by
side over a random sequence of slot states on one scheduler row.  The
steps are what the SM does to a row: CTA placement into an empty or a
retired slot, exit, barrier entry and release (with their notify
hooks), readiness and next-instruction changes, the GPUDet quantum hold
and the DAB ``buffer_full``, ``flush`` and ``batch`` gates (per warp,
or for every warp at once as a gate event sets them), and drain
resets.  After every step both policies select; the warp, the stall
reason, ``gate_blocked_warp``, the policy state (GTO's greedy warp,
SRR's pointer, GTRR's mode, GTAR's round and pending warps, GWAT's
token) and the emitted ``sched`` events must be equal.

Whenever the row-based policy returns no warp with a gate reason
(``buffer_full``, ``flush``, ``batch``), or GTO returns none under
GPUDet with every timing-ready warp held, a second ``select`` on the
unchanged row must return the same warp, reason and
``gate_blocked_warp``, leave every policy field unchanged and emit no
``sched`` event: such a ``select`` is idempotent, which is what lets
the SM put a gate-blocked or GPUDet-held scheduler to sleep (DESIGN
§12 "Sleeping schedulers").  Two step kinds make those rows common:
every warp held at once (a GPUDet mode change), and the policy's
in-order warp (SRR, GTRR's SRR phase, named by ``inorder_slot``) made
ready at a gated atomic while the other warps are ready at non-atomic
instructions.  In that second state ``inorder_slot`` must name the
same slot again and change nothing.

The reference reads records built the way the SM built them: ``None``
for an empty slot, ``DONE_STATUS`` for a finished warp, else readiness
(timing-ready and, under GPUDet, not held), barrier, next-atomic and
gate fields.

Runs derandomized; ``--hypothesis-seed=N`` draws a different set.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.isa import assemble
from repro.arch.kernel import CTA, Kernel
from repro.arch.warp import Warp
from repro.core.schedulers import (
    GATE_STALLS,
    POLICY_NAMES,
    STALL_GATE_BATCH,
    STALL_GATE_BUFFER,
    STALL_GATE_FLUSH,
    SchedRow,
    SchedulerPolicy,
    make_scheduler,
)
from repro.sim.soa import WarpSlabs
from tests.property.sched_reference import DONE_STATUS, REFERENCE, WarpStatus

_KERNEL = Kernel("t", assemble("    exit"), grid_dim=64, cta_dim=32)
#: pc cell 0 holds a non-atomic instruction, pc 1 an atomic.
_ATOMIC = (False, True)
GATES = ("", STALL_GATE_BUFFER, STALL_GATE_FLUSH, STALL_GATE_BATCH)
#: ready: nothing outstanding and ready_cycle <= now; later: ready in 2
#: cycles; load/atom: one outstanding load/atomic.
TIMINGS = ("ready", "later", "load", "atom")


class Recorder:
    """Stands in for the observability hub: keeps the emitted events."""

    def __init__(self):
        self.events = []

    def emit(self, cat, name, **fields):
        self.events.append((cat, name, sorted(fields.items())))


class Row:
    """One scheduler row driven like an SM drives it, feeding both the
    row-based policy and the reference."""

    def __init__(self, name: str, nslots: int, mode: str, latency: int):
        self.mode = mode
        self.latency = latency
        self.slabs = WarpSlabs(1, 1, nslots)
        sl = self.slabs
        self.table = [None] * nslots
        self.row = SchedRow(self.table, sl.active[0], sl.at_barrier[0],
                            sl.ready_cycle[0], sl.out_loads[0],
                            sl.out_atoms[0], sl.pc[0])
        self.row.atomic = _ATOMIC
        self.new = make_scheduler(name, nslots)
        self.ref = REFERENCE[name](nslots)
        for p in (self.new, self.ref):
            p.obs = Recorder()
        self.now = 0
        self.uid = 0
        self.gate = [""] * nslots
        self.hold = [False] * nslots

    def live(self, slot):
        return self.row.act[slot]

    # -- what the SM does -----------------------------------------------
    def place(self, slot, batch):
        old = self.table[slot]
        if old is not None and not old.done:
            return
        if old is not None:
            old.unbind_slab()
        self.uid += 1
        cta = CTA(kernel=_KERNEL, cta_id=self.uid)
        cta.batch = batch
        w = Warp(uid=self.uid, cta=cta, warp_id_in_cta=0, warp_size=32,
                 scheduler_id=0, hw_slot=slot)
        w.launched_cycle = self.now
        w.ready_cycle = self.now
        w.bind_slab(self.slabs, 0, slot)
        self.table[slot] = w
        self.row.add(slot)
        self.new.notify_warp_added(self.row, slot)
        self.ref.notify_warp_added(self.table, slot)

    def exit(self, slot):
        if not self.live(slot):
            return
        self.table[slot].exited = True
        self.row.remove(slot)
        self.new.notify_exit(self.row, slot)
        self.ref.notify_exit(self.table, slot)

    def barrier(self, slot):
        if not self.live(slot) or self.row.bar[slot]:
            return
        self.table[slot].at_barrier = True
        self.new.notify_barrier(self.row, slot)
        self.ref.notify_barrier(self.table, slot)

    def release(self, slot):
        if not self.live(slot) or not self.row.bar[slot]:
            return
        self.table[slot].at_barrier = False
        self.new.notify_barrier_release(self.row, slot)
        self.ref.notify_barrier_release(self.table, slot)

    def set(self, slot, timing, atomic, gate, hold):
        if not self.live(slot):
            return
        w = self.table[slot]
        w.ready_cycle = self.now + (2 if timing == "later" else 0)
        w.outstanding_loads = int(timing == "load")
        w.outstanding_atoms = int(timing == "atom")
        self.row.pc[slot] = int(atomic)
        self.gate[slot] = gate
        self.hold[slot] = hold

    def gate_all(self, gate):
        """A gate event: a flush start or end, or a batch advance,
        changes the gate of every warp at once."""
        for slot in self.row.live:
            self.gate[slot] = gate

    def hold_all(self):
        """A GPUDet mode change holds every warp at once."""
        for slot in self.row.live:
            self.hold[slot] = True

    def gate_inorder(self, gate):
        """The in-order warp becomes ready at an atomic ``gate``
        closes; every other warp it does not skip, ready at a
        non-atomic instruction."""
        r = self.row
        gates = self.gates()
        i = self.new.inorder_slot(r, gates)
        if i is None:
            return
        for t in r.live:
            if t == i:
                self.set(t, "ready", True, gate, False)
            elif not r.bar[t] and gates.get(t) != STALL_GATE_BATCH:
                self.set(t, "ready", False, "", False)

    def gates(self):
        """The gate reasons the SM's consult would put in ``gated``."""
        r = self.row
        if self.mode != "dab":
            return {}
        return {i: self.gate[i] for i in r.live
                if r.atomic[r.pc[i]] and not r.bar[i] and self.gate[i]}

    def drain(self):
        if not self.row.live:
            self.new.reset_for_drain()
            self.ref.reset_for_drain()

    # -- the consults and the records -------------------------------------
    def consult(self):
        """Fill ``held``/``gated`` as the SM's consult pass does, and
        build the reference's records from the same cells."""
        r, now = self.row, self.now
        r.held.clear()
        r.gated.clear()
        r.gated.update(self.gates())
        for i in r.live:
            timing_ready = r.ol[i] == 0 and r.oa[i] == 0 and r.rc[i] <= now
            if (self.mode == "gpudet" and timing_ready
                    and (r.bar[i] or self.hold[i])):
                r.held.add(i)
        records = []
        for i, w in enumerate(self.table):
            if w is None:
                records.append(None)
            elif not r.act[i]:
                records.append(DONE_STATUS)
            else:
                records.append(WarpStatus(
                    w, ready=r.ready(i, now), at_barrier=r.bar[i],
                    next_atomic=r.atomic[r.pc[i]], gate_ok=i not in r.gated,
                    gate_reason=r.gated.get(i, ""),
                ))
        return records

    def select_both(self):
        records = self.consult()
        got = self.new.select(self.now, self.row)
        want = self.ref.select(self.now, records)
        assert got[0] is want[0] and got[1] == want[1], (got, want)
        assert self.new.gate_blocked_warp is self.ref.gate_blocked_warp
        assert row_state(self.new) == ref_state(self.ref)
        assert self.new.obs.events == self.ref.obs.events
        if got[0] is None and (got[1] in GATE_STALLS or self.all_held()):
            self.check_select_idempotent(got)
        if got[0] is None and got[1] in GATE_STALLS:
            self.check_inorder_slot(got[1])
        w = got[0]
        if w is not None:
            # The issue: the atomic (if any) retires, the warp waits out
            # the issue latency.
            self.row.pc[w.hw_slot] = 0
            w.ready_cycle = self.now + self.latency
        self.now += 1


    def all_held(self):
        """GTO under GPUDet with every timing-ready warp held: the SM's
        held sleep."""
        r = self.row
        return (self.mode == "gpudet" and self.new.name == "gto"
                and all(i in r.held for i in r.live if r.ol[i] == 0
                        and r.oa[i] == 0 and r.rc[i] <= self.now))

    def check_inorder_slot(self, reason):
        """Where the SM's in-order sleep applies, the query names the
        same slot again and changes nothing."""
        r = self.row
        i = self.new.inorder_slot(r, r.gated)
        if i is None or not r.ready(i, self.now) or r.gated.get(i) != reason:
            return
        before = policy_fields(self.new)
        assert self.new.inorder_slot(r, r.gated) == i
        assert policy_fields(self.new) == before

    def check_select_idempotent(self, first):
        before = policy_fields(self.new)
        blocked = self.new.gate_blocked_warp
        events = len(self.new.obs.events)
        again = self.new.select(self.now, self.row)
        assert again[0] is None and again[1] == first[1], (again, first)
        assert self.new.gate_blocked_warp is blocked
        assert policy_fields(self.new) == before
        assert len(self.new.obs.events) == events


def policy_fields(p):
    """Every field of a row-based policy but its hub and blocked warp,
    sub-policies included (GTRR's SRR)."""
    out = {}
    for k, v in vars(p).items():
        if k in ("obs", "gate_blocked_warp"):
            continue
        out[k] = (policy_fields(v) if isinstance(v, SchedulerPolicy)
                  else list(v) if isinstance(v, list) else v)
    return out


def _state(p, greedy, pending):
    out = {"greedy": greedy}
    if p.name == "srr":
        out["ptr"] = p._ptr
    if p.name == "gtrr":
        out.update(mode=p._mode, ptr=p._srr._ptr)
    if p.name == "gtar":
        out.update(round=p._round_open, pending=pending)
    if p.name == "gwat":
        out["token"] = p._token
    return out


def ref_state(p):
    """The reference keeps GTO's greedy warp (on a GTO sub-policy) and
    GTAR's pending round as warp uids."""
    gto = p if p.name == "gto" else getattr(p, "_gto", None)
    return _state(p, gto._last_uid if gto else None,
                  getattr(p, "_pending", None))


def row_state(p):
    """The row form keeps them as slots tagged with the warp uid."""
    return _state(p, p._last_uid,
                  [uid for _slot, uid in getattr(p, "_pending", ())])


@st.composite
def scenarios(draw):
    nslots = draw(st.integers(1, 6))
    slot = st.integers(0, nslots - 1)
    step = st.one_of(
        st.tuples(st.just("place"), slot, st.integers(0, 1)),
        st.tuples(st.just("exit"), slot),
        st.tuples(st.just("barrier"), slot),
        st.tuples(st.just("release"), slot),
        st.tuples(st.just("set"), slot, st.sampled_from(TIMINGS),
                  st.booleans(), st.sampled_from(GATES), st.booleans()),
        st.tuples(st.just("set"), slot, st.just("ready"), st.just(True),
                  st.sampled_from(GATES), st.just(False)),
        st.tuples(st.just("gate_all"), st.sampled_from(GATES)),
        st.tuples(st.just("hold_all")),
        st.tuples(st.just("gate_inorder"),
                  st.sampled_from((STALL_GATE_BUFFER, STALL_GATE_FLUSH))),
        st.tuples(st.just("drain")),
        st.tuples(st.just("wait")),
    )
    mode = draw(st.sampled_from(("baseline", "gpudet", "dab")))
    latency = draw(st.integers(1, 4))
    # Start from a full row placed in a random slot order, so placement
    # order and slot order differ from the first step on.
    fill = [("place", i, draw(st.integers(0, 1)))
            for i in draw(st.permutations(range(nslots)))]
    return nslots, mode, latency, fill + draw(st.lists(step, min_size=10,
                                                       max_size=40))


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_row_policy_equals_reference(name, request):
    seeded = request.config.getoption("--hypothesis-seed") is not None

    @settings(max_examples=150, deadline=None, derandomize=not seeded)
    @given(scenarios())
    def check(scenario):
        nslots, mode, latency, steps = scenario
        row = Row(name, nslots, mode, latency)
        for op, *args in steps:
            if op != "wait":
                getattr(row, op)(*args)
            assert row.row.live == [i for i in range(nslots) if row.live(i)]
            assert sorted(row.row.order) == row.row.live
            row.select_both()

    check()


def test_gtar_select_on_an_all_held_row_can_reopen_its_round():
    """Why the SM lets only GTO sleep on a row GPUDet holds entirely:
    GTAR's first ``select`` there can drop a stale round head and close
    the round, and the second then opens a new round (a policy change
    and a ``sched`` event), so sleeping through it would move both."""
    row = Row("gtar", 1, "gpudet", 1)
    row.place(0, 0)
    row.set(0, "ready", True, "", True)
    row.select_both()  # opens a round whose head GPUDet holds
    row.exit(0)
    row.place(0, 0)  # the slot's new warp starts at a held atomic
    row.set(0, "ready", True, "", True)
    row.select_both()  # drops the stale head: the round closes
    assert not row.new.round_open
    events = len(row.new.obs.events)
    row.consult()
    assert row.new.select(row.now, row.row) == (None, "round")
    assert row.new.round_open and len(row.new.obs.events) == events + 1
