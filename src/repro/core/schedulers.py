"""Warp issue schedulers: GTO baseline + DAB's determinism-aware policies.

Paper Section IV-C introduces four schedulers (Fig 7) that make the
*order in which atomics are issued into a shared atomic buffer* a
deterministic function of the program:

* **SRR** — strict round robin over the scheduler's warps.
* **GTRR** — GTO until every live warp has reached its first atomic (or
  finished), then SRR until the scheduler drains.
* **GTAR** — GTO between "rounds" of atomics; each atomic acts as a
  scheduler-level barrier; within a round atomics issue in slot order,
  and a warp that finished its atomic may resume non-atomic work.
* **GWAT** — a token passes among warps in slot order; only the holder
  may issue an atomic; everything else is scheduled greedily.

Selection runs over rows, not per-warp records.  The SM hands each
scheduler its :class:`SchedRow`: the slot table, the live slots in slot
order and in placement order, the scheduler's warp timing rows
(:mod:`repro.sim.soa`) and the results of the two consults with side
effects (GPUDet's quantum check, DAB's atomic-issue gates).  A policy
reads the cells of the slots it looks at; its own state is slot
indices (GTO's greedy warp, SRR's pointer, GTAR's pending round,
GWAT's token), each tagged with the warp uid wherever the slot could
be reused under it.  ``select`` returns the warp to issue this cycle
(the SM guarantees the issue happens) or ``None`` plus a stall-reason
keyword used for the Fig 15 overhead breakdown.

Determinism notes (the properties the tests pin down):

* Every atomic-issue decision is gated on *program-order events* — slot
  order, "warp reached an atomic/barrier/exit" — never on readiness
  races.  A warp that is merely slow (memory latency) blocks the
  decision rather than being skipped.
* GWAT's token passes **event-driven** (``notify_*`` hooks called by
  the SM at the holder's atomic-issue / exit / barrier-entry), not by
  observation at select time.  Observation-driven passing would make
  the pass dependent on whether a scheduling cycle happened to land
  inside the holder's blocked window, which is timing-dependent.
  When passing, exited and barrier-blocked warps are skipped; this is
  equivalent to handing them the token and letting their own (already
  past) event pass it on, because a warp with an atomic still pending
  can never be in those states while another warp holds the token.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.warp import Warp

#: Stall reasons (Fig 15 overhead breakdown buckets).
STALL_EMPTY = "empty"            # no live warps
STALL_MEM = "mem"                # all live warps waiting on memory/latency
STALL_BARRIER = "barrier"        # all live warps at a CTA barrier
STALL_INORDER = "inorder"        # SRR: in-order warp not ready, others were
STALL_TOKEN = "token"            # GWAT: atomic blocked on token
STALL_ROUND = "round"            # GTAR/GTRR: waiting for atomic round/switch
STALL_GATE_BUFFER = "buffer_full"  # atomic blocked: buffer full
STALL_GATE_FLUSH = "flush"       # atomic blocked: flush in progress
STALL_GATE_BATCH = "batch"       # atomic blocked: CTA batch ordering
#: the external atomic-issue gates' reasons (DAB).
GATE_STALLS = frozenset((STALL_GATE_BUFFER, STALL_GATE_FLUSH,
                         STALL_GATE_BATCH))


class SchedRow:
    """One scheduler's slots as ``select`` reads them.

    * ``warps`` — the slot table: the warp bound to each local slot, or
      None; a finished warp stays until its slot is reused.
    * ``live`` — the slots of live warps in slot order, and ``order``
      the same slots in placement order (ascending warp uid).  Warp
      uids and launch cycles only grow, so placement order is GTO's
      oldest-first order.  :meth:`add` and :meth:`remove` keep both.
    * ``act``, ``bar``, ``rc``, ``ol``, ``oa``, ``pc`` — the
      scheduler's ``active``, ``at_barrier``, ``ready_cycle``,
      ``out_loads``, ``out_atoms`` and ``pc`` rows.  A warp is
      *timing-ready* when nothing is outstanding and its ready cycle
      has come.
    * ``atomic`` — per PC of the current kernel: the instruction is a
      ``red``/``atom``.
    * ``held`` — timing-ready slots whose warp may still not issue
      this cycle (GPUDet: its quantum ended, or it waits at a barrier).
    * ``gated`` — slot → gate reason for each live warp, not at a
      barrier, whose next atomic an external gate blocks (DAB: buffer
      full, flush in progress, later CTA batch), in slot order.

    The SM refills ``held`` and ``gated`` before each ``select``;
    policies only read a row and keep no reference to it.
    """

    __slots__ = ("warps", "live", "order", "act", "bar", "rc", "ol", "oa",
                 "pc", "atomic", "held", "gated")

    def __init__(self, warps: List[Optional[Warp]], act: List[bool],
                 bar: List[bool], rc: List[int], ol: List[int],
                 oa: List[int], pc: List[int]):
        self.warps = warps
        self.act = act
        self.bar = bar
        self.rc = rc
        self.ol = ol
        self.oa = oa
        self.pc = pc
        self.live: List[int] = []
        self.order: List[int] = []
        self.atomic: Sequence[bool] = ()
        self.held: Set[int] = set()
        self.gated: Dict[int, str] = {}

    def add(self, slot: int) -> None:
        """A warp was placed at ``slot`` (its uid exceeds every live one)."""
        insort(self.live, slot)
        self.order.append(slot)

    def remove(self, slot: int) -> None:
        """The warp at ``slot`` exited."""
        self.live.remove(slot)
        self.order.remove(slot)

    def ready(self, i: int, now: int) -> bool:
        """The warp at slot ``i`` can issue something this cycle."""
        return (self.ol[i] == 0 and self.oa[i] == 0 and self.rc[i] <= now
                and i not in self.held)


class SchedulerPolicy:
    """Base class; subclasses override :meth:`select`."""

    name = "base"
    deterministic_atomics = False

    def __init__(self, num_slots: int):
        self.num_slots = num_slots
        #: set during select() when this policy's *deterministic next*
        #: atomic candidate was blocked on buffer capacity; the SM trips
        #: the buffer's sticky full bit in response (see sim.sm).
        self.gate_blocked_warp = None
        #: greedy warp of the GTO picks: its slot and uid (the uid tells
        #: a reused slot apart).
        self._last_slot: Optional[int] = None
        self._last_uid: Optional[int] = None
        #: observability hub + (sm, scheduler) coordinates, wired by the
        #: owning SM; None/-1 for standalone schedulers (unit tests).
        self.obs = None
        self.obs_sm = -1
        self.obs_id = -1

    def select(self, now: int,
               row: SchedRow) -> Tuple[Optional[Warp], Optional[str]]:
        """Pick the warp to issue from ``row``."""
        raise NotImplementedError

    # -- event hooks (called by the SM; see module docstring) -------------
    def notify_warp_added(self, row: SchedRow, slot: int) -> None:
        pass

    def notify_exit(self, row: SchedRow, slot: int) -> None:
        pass

    def notify_barrier(self, row: SchedRow, slot: int) -> None:
        pass

    def notify_barrier_release(self, row: SchedRow, slot: int) -> None:
        pass

    def inorder_slot(self, row: SchedRow,
                     gated: Dict[int, str]) -> Optional[int]:
        """The slot a strict in-order policy must issue next, given the
        gate reasons ``gated``; None when the policy has no such warp.

        Free of side effects: the SM's in-order sleep and the armed
        ``wake`` check (with recomputed gates) share this one answer.
        """
        return None

    def reset_for_drain(self) -> None:
        """Called when the scheduler has no live warps (kernel boundary)."""
        self._last_slot = self._last_uid = None

    # -- helpers ----------------------------------------------------------
    def _gto_pick(self, row: SchedRow, now: int,
                  atomics: bool) -> Optional[int]:
        """Greedy-then-oldest: the last-issued warp if it can issue,
        else the first issuable warp in placement order.

        Issuable: timing-ready, not held, not at a barrier, and either
        not at an atomic or (``atomics``) at one no gate blocks.
        """
        bar, rc, ol, oa = row.bar, row.rc, row.ol, row.oa
        pc, atomic, held, gated = row.pc, row.atomic, row.held, row.gated
        i = self._last_slot
        if (i is not None and row.act[i]
                and row.warps[i].uid == self._last_uid
                and not bar[i] and ol[i] == 0 and oa[i] == 0
                and rc[i] <= now and i not in held
                and (not atomic[pc[i]] or (atomics and i not in gated))):
            return i
        for i in row.order:
            if (not bar[i] and ol[i] == 0 and oa[i] == 0 and rc[i] <= now
                    and i not in held
                    and (not atomic[pc[i]] or (atomics and i not in gated))):
                self._last_slot = i
                self._last_uid = row.warps[i].uid
                return i
        return None

    @staticmethod
    def _first_gated(row: SchedRow, now: int) -> Optional[int]:
        """The first timing-ready slot in slot order whose atomic a
        gate blocks."""
        for i in row.gated:
            if row.ready(i, now):
                return i
        return None

    @classmethod
    def _fallback_reason(cls, row: SchedRow, now: int) -> str:
        if not row.live:
            return STALL_EMPTY
        bar = row.bar
        if all(bar[i] for i in row.live):
            return STALL_BARRIER
        i = cls._first_gated(row, now)
        if i is not None:
            return row.gated[i]
        return STALL_MEM

    @staticmethod
    def _atomic_ready(row: SchedRow, now: int) -> bool:
        """Some live warp is timing-ready at an atomic."""
        pc, atomic = row.pc, row.atomic
        return any(atomic[pc[i]] and row.ready(i, now) for i in row.live)


class GTOScheduler(SchedulerPolicy):
    """Greedy-Then-Oldest — the non-deterministic baseline (Table I)."""

    name = "gto"
    deterministic_atomics = False

    def select(self, now, row):
        self.gate_blocked_warp = None
        i = self._gto_pick(row, now, True)
        if i is not None:
            return row.warps[i], None
        reason = self._fallback_reason(row, now)
        if reason == STALL_GATE_BUFFER:
            self.gate_blocked_warp = row.warps[self._first_gated(row, now)]
        return None, reason


class SRRScheduler(SchedulerPolicy):
    """Strict round robin (Section IV-C1, Fig 7a).

    Warps issue in fixed slot order; a warp that cannot issue blocks the
    scheduler (no skipping), except warps blocked on ``bar.sync``,
    exited warps and empty slots, which are skipped as the paper states.
    """

    name = "srr"
    deterministic_atomics = True

    def __init__(self, num_slots: int):
        super().__init__(num_slots)
        self._ptr = 0

    def inorder_slot(self, row, gated):
        """The first live slot from the pointer on, wrapping around,
        whose warp is neither at a barrier nor waiting at the batch
        gate (both are skipped: a later-batch warp's turn in the
        deterministic order only comes once its batch opens)."""
        live = row.live
        bar = row.bar
        k = bisect_left(live, self._ptr)
        for i in live[k:] + live[:k]:
            if not bar[i] and gated.get(i) != STALL_GATE_BATCH:
                return i
        return None

    def select(self, now, row):
        self.gate_blocked_warp = None
        live = row.live
        if not live:
            return None, STALL_EMPTY
        gated = row.gated
        i = self.inorder_slot(row, gated)
        if i is None:
            return None, self._fallback_reason(row, now)
        if row.ready(i, now):
            gate = gated.get(i)
            if gate is None:
                self._ptr = (i + 1) % self.num_slots
                return row.warps[i], None
            # In-order warp is gated: strict RR cannot pass it.
            if gate == STALL_GATE_BUFFER:
                self.gate_blocked_warp = row.warps[i]
            return None, gate
        # In-order warp is stalled: strict RR cannot pass it.
        bar = row.bar
        others_ready = any(
            t != i and not bar[t] and row.ready(t, now) for t in live
        )
        return None, STALL_INORDER if others_ready else STALL_MEM

    def reset_for_drain(self):
        super().reset_for_drain()
        self._ptr = 0


class GTRRScheduler(SchedulerPolicy):
    """Greedy-Then-Round-Robin (Section IV-C2, Fig 7b).

    Runs GTO while no warp has reached an atomic; atomics stall.  Once
    every live warp is atomic-pending, at a barrier, or exited, the
    scheduler switches to SRR for the rest of the kernel (the switch
    point is deterministic because reaching an atomic is a program-order
    event under DRF, and the switch is one-way).
    """

    name = "gtrr"
    deterministic_atomics = True

    def __init__(self, num_slots: int):
        super().__init__(num_slots)
        self._mode = "gto"
        self._srr = SRRScheduler(num_slots)

    @property
    def mode(self) -> str:
        return self._mode

    def inorder_slot(self, row, gated):
        """SRR's in-order slot once in the SRR phase; None under GTO."""
        return (self._srr.inorder_slot(row, gated) if self._mode == "srr"
                else None)

    def select(self, now, row):
        self.gate_blocked_warp = None
        live = row.live
        if not live:
            return None, STALL_EMPTY
        if self._mode == "gto":
            bar, pc, atomic = row.bar, row.pc, row.atomic
            if all(atomic[pc[i]] or bar[i] for i in live):
                self._mode = "srr"
                if self.obs is not None:
                    self.obs.emit("sched", "mode_switch", sm=self.obs_sm,
                                  sched=self.obs_id, mode="srr")
            else:
                i = self._gto_pick(row, now, False)
                if i is not None:
                    return row.warps[i], None
                if self._atomic_ready(row, now):
                    return None, STALL_ROUND
                return None, self._fallback_reason(row, now)
        picked = self._srr.select(now, row)
        self.gate_blocked_warp = self._srr.gate_blocked_warp
        return picked

    def reset_for_drain(self):
        super().reset_for_drain()
        self._mode = "gto"
        self._srr.reset_for_drain()


class GTARScheduler(SchedulerPolicy):
    """Greedy-Then-Atomic-Round-Robin (Section IV-C3, Fig 7c).

    Atomics are grouped into rounds.  A round opens when every live warp
    has reached an atomic, a barrier, or exited; the atomic-pending
    warps then issue their atomics one by one in slot order.  Warps that
    completed their atomic (and warps with no atomics) run under GTO
    concurrently.  A warp reaching its *next* atomic while a round is
    open waits for the following round.

    The round-open condition only references warps blocked at
    program-order points, and none of them can unblock before the round
    opens (barrier release requires a buffer flush, which in turn
    requires this scheduler's warps to be at deterministic blocked
    points), so the pending set is timing-invariant.
    """

    name = "gtar"
    deterministic_atomics = True

    def __init__(self, num_slots: int):
        super().__init__(num_slots)
        #: the open round's (slot, warp uid) pairs in issue order; the
        #: uid drops an entry whose warp exited and whose slot was reused.
        self._pending: List[Tuple[int, int]] = []
        self._round_open = False

    @property
    def round_open(self) -> bool:
        return self._round_open

    def select(self, now, row):
        self.gate_blocked_warp = None
        live = row.live
        if not live:
            return None, STALL_EMPTY
        warps, act, bar = row.warps, row.act, row.bar
        pc, atomic = row.pc, row.atomic

        if not self._round_open:
            if all(atomic[pc[i]] or bar[i] for i in live):
                # Barrier-blocked warps joined the *barrier*, not this
                # atomic round — even when their first post-barrier
                # instruction happens to be an atomic (it issues in a
                # later round, after release).  Batch-major, then slot
                # order (a stable sort of the slot-order list).
                ordered = sorted(
                    (i for i in live if atomic[pc[i]] and not bar[i]),
                    key=lambda i: warps[i].batch,
                )
                self._pending = [(i, warps[i].uid) for i in ordered]
                self._round_open = bool(self._pending)
                if self._round_open and self.obs is not None:
                    self.obs.emit("sched", "round_advance", sm=self.obs_sm,
                                  sched=self.obs_id,
                                  pending=len(self._pending))

        head: Optional[int] = None
        while self._round_open:
            i, uid = self._pending[0]
            if (not act[i] or warps[i].uid != uid or not atomic[pc[i]]
                    or bar[i]):
                # Head exited, its atomic was guarded off, or it reached
                # a barrier before its atomic could issue (e.g. the gate
                # opened a flush that released it into a different
                # path): it waits for a later round.  Drop it.
                self._pending.pop(0)
                if not self._pending:
                    self._round_open = False
                continue
            if row.ready(i, now):
                gate = row.gated.get(i)
                if gate is None:
                    self._pending.pop(0)
                    if not self._pending:
                        self._round_open = False
                    return warps[i], None
                if gate == STALL_GATE_BUFFER:
                    self.gate_blocked_warp = warps[i]
            head = i
            break  # head stalled (latency or gate); round waits

        # Non-atomic work under GTO (atomics only issue as round heads).
        i = self._gto_pick(row, now, False)
        if i is not None:
            return warps[i], None

        if head is not None:
            if head in row.gated and row.ready(head, now):
                return None, row.gated[head]
            return None, STALL_ROUND
        if self._atomic_ready(row, now):
            return None, STALL_ROUND
        return None, self._fallback_reason(row, now)

    def reset_for_drain(self):
        super().reset_for_drain()
        self._pending = []
        self._round_open = False


class GWATScheduler(SchedulerPolicy):
    """Greedy-With-Atomic-Token (Section IV-C4, Fig 7d)."""

    name = "gwat"
    deterministic_atomics = True

    def __init__(self, num_slots: int):
        super().__init__(num_slots)
        self._token: Optional[int] = None  # slot index

    @property
    def token_slot(self) -> Optional[int]:
        return self._token

    # -- event-driven token passing ----------------------------------------
    def notify_warp_added(self, row, slot):
        if self._token is None:
            self._token = slot

    def notify_exit(self, row, slot):
        if self._token == slot:
            self._pass_token(row, slot)

    def notify_barrier(self, row, slot):
        if self._token == slot:
            self._pass_token(row, slot)

    def notify_barrier_release(self, row, slot):
        """Reclaim the token from a frozen later-batch holder.

        A barrier-blocked warp is skipped by token passes; if the token
        then lands on a warp of a *later* CTA batch, that holder is
        frozen by the batch gate and cannot pass the token on, so the
        released earlier-batch warp must take it back (otherwise the
        batch gate and the token deadlock against each other).  The
        frozen holder never issued, so the reclaim does not reorder any
        issued atomics.
        """
        act = row.act
        if not act[slot]:
            return
        holder = self._token
        if (holder is None or not act[holder]
                or row.warps[holder].batch > row.warps[slot].batch):
            self._token = slot

    def _next_holder(self, row: SchedRow, from_slot: int) -> Optional[int]:
        """The next warp in (batch, slot-cyclic) order after ``from_slot``.

        Skips empty slots, exited warps and barrier-blocked warps (see
        module docstring for why skipping preserves determinism).
        Warps of an *earlier CTA batch* take priority regardless of slot
        distance: the deterministic atomic order is batch-major
        (Section IV-C5 — "all atomics from batch b_i must complete
        before any atomics from b_{i+1}"), and a later-batch warp
        holding the token while earlier-batch atomics are pending would
        deadlock against the batch gate.  At any instant live warps span
        at most two consecutive batches and lower-batch warps can never
        appear after the pass, so the choice is timing-invariant.
        ``from_slot`` itself comes last; None if no warp is eligible.
        """
        n = self.num_slots
        bar, warps = row.bar, row.warps
        best = None
        best_key = None
        for i in row.live:
            if bar[i]:
                continue
            key = (warps[i].batch, (i - from_slot - 1) % n)
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    def _pass_token(self, row: SchedRow, from_slot: int) -> None:
        """Hand the token on; if no eligible warp exists it is dropped
        and the next ``notify_warp_added``, barrier release or select
        re-seeds it."""
        self._token = best = self._next_holder(row, from_slot)
        if self.obs is not None:
            self.obs.emit("sched", "token_pass", sm=self.obs_sm,
                          sched=self.obs_id, from_slot=from_slot,
                          to_slot=best)

    def select(self, now, row):
        self.gate_blocked_warp = None
        if not row.live:
            self._token = None
            return None, STALL_EMPTY

        if self._token is None:
            # Token was dropped (everyone was blocked); re-seed it at the
            # smallest runnable (batch, slot) — a deterministic choice
            # because the drop happens only when *all* warps sit at
            # program-order blocked points.
            self._token = self._next_holder(row, self.num_slots - 1)

        h = self._token
        if h is not None and not row.act[h]:
            h = None
        # Highest priority: the token holder's atomic.
        holder_atomic = (h is not None and row.atomic[row.pc[h]]
                         and not row.bar[h] and row.ready(h, now))
        if holder_atomic:
            gate = row.gated.get(h)
            if gate is None:
                self._pass_token(row, h)
                return row.warps[h], None
            # Gated (buffer full / flush): holder keeps the token so the
            # deterministic order is preserved; non-atomic work continues.
            if gate == STALL_GATE_BUFFER:
                self.gate_blocked_warp = row.warps[h]

        i = self._gto_pick(row, now, False)
        if i is not None:
            return row.warps[i], None

        if holder_atomic:
            return None, row.gated[h]
        bar, pc, atomic = row.bar, row.pc, row.atomic
        if any(atomic[pc[i]] and not bar[i] and row.ready(i, now)
               for i in row.live):
            return None, STALL_TOKEN
        return None, self._fallback_reason(row, now)

    def reset_for_drain(self):
        super().reset_for_drain()
        self._token = None


POLICY_NAMES = ("gto", "srr", "gtrr", "gtar", "gwat")

_POLICIES = {
    "gto": GTOScheduler,
    "srr": SRRScheduler,
    "gtrr": GTRRScheduler,
    "gtar": GTARScheduler,
    "gwat": GWATScheduler,
}


def make_scheduler(name: str, num_slots: int) -> SchedulerPolicy:
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(num_slots)
