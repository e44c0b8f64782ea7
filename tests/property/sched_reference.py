"""Record-based scheduler policies, frozen as the reference.

The simulator's policies (:mod:`repro.core.schedulers`) choose from
slot indices and row cells.  These are the policies they replaced: each
``select`` receives one :class:`WarpStatus` record per slot, rebuilt
every epoch, and the policies keep GTO's greedy warp and GTAR's pending
round as warp uids.  ``test_prop_sched_reference.py`` drives both side
by side.  Kept as they were; do not edit them to make that property
pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.arch.warp import Warp
from repro.core.schedulers import (
    STALL_BARRIER,
    STALL_EMPTY,
    STALL_GATE_BATCH,
    STALL_GATE_BUFFER,
    STALL_INORDER,
    STALL_MEM,
    STALL_ROUND,
    STALL_TOKEN,
)


@dataclass
class WarpStatus:
    """One slot's issue-readiness snapshot for this cycle.

    The SM reuses one record per hardware slot across cycles (rewriting
    the fields in place) rather than allocating a fresh snapshot per
    warp per cycle; policies must therefore not retain references across
    ``select`` calls (they keep warp uids / slot indices instead).
    """

    warp: Optional[Warp]
    ready: bool              # can issue *something* this cycle (latency, mem)
    at_barrier: bool
    next_atomic: bool        # next instruction is red/atom
    gate_ok: bool = True     # external atomic gates (buffer/flush/batch)
    gate_reason: str = ""    # which gate failed

    @property
    def live(self) -> bool:
        return self.warp is not None and not self.warp.done


#: Shared snapshot for finished warps.  Every policy treats done warps
#: as non-candidates (filtered on ``live``), so the per-warp fields a
#: populated status used to carry were dead — one immutable sentinel
#: with ``warp=None`` serves every slot.
DONE_STATUS = WarpStatus(None, ready=False, at_barrier=False, next_atomic=False)


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
        #: observability hub + (sm, scheduler) coordinates, wired by the
        #: owning SM; None/-1 for standalone schedulers (unit tests).
        self.obs = None
        self.obs_sm = -1
        self.obs_id = -1

    def select(
        self, now: int, slots: Sequence[Optional[WarpStatus]],
        live: Optional[List[WarpStatus]] = None,
    ) -> Tuple[Optional[Warp], Optional[str]]:
        """Pick the warp to issue.

        ``live`` optionally carries the precomputed ``_live(slots)``
        list: the SM builds it while writing the status rows, so
        policies need not re-filter the slots (identical contents and
        order; a caller without it passes None and the policy filters
        here).
        """
        raise NotImplementedError

    # -- event hooks (called by the SM; see module docstring) -------------
    def notify_warp_added(self, warps: Sequence[Optional[Warp]], slot: int) -> None:
        pass

    def notify_exit(self, warps: Sequence[Optional[Warp]], slot: int) -> None:
        pass

    def notify_barrier(self, warps: Sequence[Optional[Warp]], slot: int) -> None:
        pass

    def notify_barrier_release(self, warps: Sequence[Optional[Warp]], slot: int) -> None:
        pass

    def reset_for_drain(self) -> None:
        """Called when the scheduler has no live warps (kernel boundary)."""

    # -- helpers ----------------------------------------------------------
    @staticmethod
    def _live(slots: Sequence[Optional[WarpStatus]]) -> List[WarpStatus]:
        return [s for s in slots if s is not None and s.live]

    @staticmethod
    def _fallback_reason(live: List[WarpStatus]) -> str:
        if not live:
            return STALL_EMPTY
        if all(s.at_barrier for s in live):
            return STALL_BARRIER
        gated = [s for s in live if s.ready and s.next_atomic and not s.gate_ok]
        if gated:
            return gated[0].gate_reason or STALL_GATE_BUFFER
        return STALL_MEM

    @staticmethod
    def _gto_pick(candidates: List[WarpStatus], last_uid: Optional[int]) -> Optional[WarpStatus]:
        """Greedy-then-oldest among issuable candidates."""
        if not candidates:
            return None
        if last_uid is not None:
            for s in candidates:
                if s.warp.uid == last_uid:
                    return s
        return min(candidates, key=lambda s: (s.warp.launched_cycle, s.warp.uid))


class GTOScheduler(SchedulerPolicy):
    """Greedy-Then-Oldest — the non-deterministic baseline (Table I)."""

    name = "gto"
    deterministic_atomics = False

    def __init__(self, num_slots: int):
        super().__init__(num_slots)
        self._last_uid: Optional[int] = None

    def select(self, now, slots, live=None):
        self.gate_blocked_warp = None
        if live is None:
            live = self._live(slots)
        issuable = [
            s for s in live
            if s.ready and not s.at_barrier and (not s.next_atomic or s.gate_ok)
        ]
        pick = self._gto_pick(issuable, self._last_uid)
        if pick is None:
            reason = self._fallback_reason(live)
            if reason == STALL_GATE_BUFFER:
                for s in live:
                    if s.ready and s.next_atomic and s.gate_reason == STALL_GATE_BUFFER:
                        self.gate_blocked_warp = s.warp
                        break
            return None, reason
        self._last_uid = pick.warp.uid
        return pick.warp, None

    def reset_for_drain(self):
        self._last_uid = None


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

    def select(self, now, slots, live=None):
        self.gate_blocked_warp = None
        if live is None:
            live = self._live(slots)
        if not live:
            return None, STALL_EMPTY
        for step in range(self.num_slots):
            idx = (self._ptr + step) % self.num_slots
            s = slots[idx]
            if s is None or not s.live or s.at_barrier:
                continue  # skippable
            if (
                s.next_atomic
                and not s.gate_ok
                and s.gate_reason == STALL_GATE_BATCH
            ):
                # A later-batch warp waiting on the batch gate is
                # skipped like a barrier-blocked warp: its turn in the
                # deterministic order only comes once its batch opens.
                continue
            if s.ready and (not s.next_atomic or s.gate_ok):
                self._ptr = (idx + 1) % self.num_slots
                return s.warp, None
            # In-order warp is stalled: strict RR cannot pass it.
            if s.ready and s.next_atomic and not s.gate_ok:
                if (s.gate_reason or STALL_GATE_BUFFER) == STALL_GATE_BUFFER:
                    self.gate_blocked_warp = s.warp
                return None, s.gate_reason or STALL_GATE_BUFFER
            others_ready = any(
                t is not None and t.live and t.ready and not t.at_barrier
                and t.warp is not s.warp
                for t in slots
            )
            return None, STALL_INORDER if others_ready else STALL_MEM
        return None, self._fallback_reason(live)

    def reset_for_drain(self):
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
        self._gto = GTOScheduler(num_slots)
        self._srr = SRRScheduler(num_slots)

    @property
    def mode(self) -> str:
        return self._mode

    def select(self, now, slots, live=None):
        self.gate_blocked_warp = None
        if live is None:
            live = self._live(slots)
        if not live:
            return None, STALL_EMPTY
        if self._mode == "gto":
            if all(s.next_atomic or s.at_barrier for s in live):
                self._mode = "srr"
                if self.obs is not None:
                    self.obs.emit("sched", "mode_switch", sm=self.obs_sm,
                                  sched=self.obs_id, mode="srr")
            else:
                issuable = [
                    s for s in live
                    if s.ready and not s.at_barrier and not s.next_atomic
                ]
                pick = self._gto_pick(issuable, self._gto._last_uid)
                if pick is not None:
                    self._gto._last_uid = pick.warp.uid
                    return pick.warp, None
                if any(s.ready and s.next_atomic for s in live):
                    return None, STALL_ROUND
                return None, self._fallback_reason(live)
        picked = self._srr.select(now, slots, live)
        self.gate_blocked_warp = self._srr.gate_blocked_warp
        return picked

    def reset_for_drain(self):
        self._mode = "gto"
        self._gto.reset_for_drain()
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
        self._gto = GTOScheduler(num_slots)
        self._pending: List[int] = []   # warp uids, slot order
        self._round_open = False

    @property
    def round_open(self) -> bool:
        return self._round_open

    def select(self, now, slots, live=None):
        self.gate_blocked_warp = None
        if live is None:
            live = self._live(slots)
        if not live:
            return None, STALL_EMPTY

        if not self._round_open:
            if all(s.next_atomic or s.at_barrier for s in live):
                # Barrier-blocked warps joined the *barrier*, not this
                # atomic round — even when their first post-barrier
                # instruction happens to be an atomic (it issues in a
                # later round, after release).
                ordered = sorted(
                    (s for s in live if s.next_atomic and not s.at_barrier),
                    key=lambda s: (s.warp.batch, s.warp.hw_slot),
                )
                self._pending = [s.warp.uid for s in ordered]
                self._round_open = bool(self._pending)
                if self._round_open and self.obs is not None:
                    self.obs.emit("sched", "round_advance", sm=self.obs_sm,
                                  sched=self.obs_id,
                                  pending=len(self._pending))

        head_status: Optional[WarpStatus] = None
        while self._round_open:
            head_uid = self._pending[0]
            head_status = None
            for s in live:
                if s.warp.uid == head_uid:
                    head_status = s
                    break
            if head_status is None or not head_status.next_atomic:
                # Head exited or its atomic was guarded off; drop it.
                self._pending.pop(0)
                if not self._pending:
                    self._round_open = False
                    head_status = None
                continue
            if head_status.at_barrier:
                # Head reached a barrier before its atomic could issue
                # (e.g. the gate opened a flush that released it into a
                # different path): it waits for a later round.
                self._pending.pop(0)
                if not self._pending:
                    self._round_open = False
                    head_status = None
                continue
            if head_status.ready and head_status.gate_ok:
                self._pending.pop(0)
                if not self._pending:
                    self._round_open = False
                return head_status.warp, None
            if (
                head_status.ready
                and not head_status.gate_ok
                and (head_status.gate_reason or STALL_GATE_BUFFER)
                == STALL_GATE_BUFFER
            ):
                self.gate_blocked_warp = head_status.warp
            break  # head stalled (latency or gate); round waits

        # Non-atomic work under GTO (atomics only issue as round heads).
        issuable = [
            s for s in live
            if s.ready and not s.at_barrier and not s.next_atomic
        ]
        pick = self._gto_pick(issuable, self._gto._last_uid)
        if pick is not None:
            self._gto._last_uid = pick.warp.uid
            return pick.warp, None

        if self._round_open and head_status is not None:
            if head_status.ready and not head_status.gate_ok:
                return None, head_status.gate_reason or STALL_GATE_BUFFER
            return None, STALL_ROUND
        if any(s.ready and s.next_atomic for s in live):
            return None, STALL_ROUND
        return None, self._fallback_reason(live)

    def reset_for_drain(self):
        self._gto.reset_for_drain()
        self._pending = []
        self._round_open = False


class GWATScheduler(SchedulerPolicy):
    """Greedy-With-Atomic-Token (Section IV-C4, Fig 7d)."""

    name = "gwat"
    deterministic_atomics = True

    def __init__(self, num_slots: int):
        super().__init__(num_slots)
        self._gto = GTOScheduler(num_slots)
        self._token: Optional[int] = None  # slot index

    @property
    def token_slot(self) -> Optional[int]:
        return self._token

    # -- event-driven token passing ----------------------------------------
    def notify_warp_added(self, warps, slot):
        if self._token is None:
            self._token = slot

    def notify_exit(self, warps, slot):
        if self._token == slot:
            self._pass_token(warps, slot)

    def notify_barrier(self, warps, slot):
        if self._token == slot:
            self._pass_token(warps, slot)

    def notify_barrier_release(self, warps, slot):
        """Reclaim the token from a frozen later-batch holder.

        A barrier-blocked warp is skipped by token passes; if the token
        then lands on a warp of a *later* CTA batch, that holder is
        frozen by the batch gate and cannot pass the token on, so the
        released earlier-batch warp must take it back (otherwise the
        batch gate and the token deadlock against each other).  The
        frozen holder never issued, so the reclaim does not reorder any
        issued atomics.
        """
        w = warps[slot]
        if w is None or w.done:
            return
        if self._token is None:
            self._token = slot
            return
        holder = warps[self._token]
        if holder is None or holder.done:
            self._token = slot
            return
        if holder.batch > w.batch:
            self._token = slot

    def _pass_token(self, warps: Sequence[Optional[Warp]], from_slot: int) -> None:
        """Hand the token to the next warp in (batch, slot-cyclic) order.

        Skips empty slots, exited warps and barrier-blocked warps (see
        module docstring for why skipping preserves determinism).
        Warps of an *earlier CTA batch* take priority regardless of slot
        distance: the deterministic atomic order is batch-major
        (Section IV-C5 — "all atomics from batch b_i must complete
        before any atomics from b_{i+1}"), and a later-batch warp
        holding the token while earlier-batch atomics are pending would
        deadlock against the batch gate.  At any instant live warps span
        at most two consecutive batches and lower-batch warps can never
        appear after the pass, so the choice is timing-invariant.  If no
        eligible warp exists the token is dropped; the next
        ``notify_warp_added`` or barrier release re-seeds it.
        """
        best = None
        best_key = None
        for step in range(1, self.num_slots + 1):
            idx = (from_slot + step) % self.num_slots
            w = warps[idx]
            if w is None or w.done or w.at_barrier:
                continue
            key = (w.batch, step)
            if best_key is None or key < best_key:
                best, best_key = idx, key
        self._token = best
        if self.obs is not None:
            self.obs.emit("sched", "token_pass", sm=self.obs_sm,
                          sched=self.obs_id, from_slot=from_slot,
                          to_slot=best)

    def _pass_token_slots(
        self, slots: Sequence[Optional[WarpStatus]], from_slot: int
    ) -> None:
        """Status-based twin of :meth:`_pass_token` for the select path.

        The statuses snapshot ``done``/``at_barrier`` at the top of this
        very select call and nothing can mutate them before the pass, so
        the decision is identical — without materializing a warps list
        and re-reading warp state through the Warp properties.
        """
        best = None
        best_key = None
        for step in range(1, self.num_slots + 1):
            idx = (from_slot + step) % self.num_slots
            s = slots[idx]
            if s is None or not s.live or s.at_barrier:
                continue
            key = (s.warp.batch, step)
            if best_key is None or key < best_key:
                best, best_key = idx, key
        self._token = best
        if self.obs is not None:
            self.obs.emit("sched", "token_pass", sm=self.obs_sm,
                          sched=self.obs_id, from_slot=from_slot,
                          to_slot=best)

    def _reseed_token(self, slots: Sequence[Optional[WarpStatus]]) -> None:
        best = None
        best_key = None
        for idx in range(self.num_slots):
            s = slots[idx]
            if s is not None and s.live and not s.at_barrier:
                key = (s.warp.batch, idx)
                if best_key is None or key < best_key:
                    best, best_key = idx, key
        if best is not None:
            self._token = best

    def select(self, now, slots, live=None):
        self.gate_blocked_warp = None
        if live is None:
            live = self._live(slots)
        if not live:
            self._token = None
            return None, STALL_EMPTY

        if self._token is None:
            # Token was dropped (everyone was blocked); re-seed it at the
            # smallest runnable slot — a deterministic choice because the
            # drop happens only when *all* warps sit at program-order
            # blocked points.
            self._reseed_token(slots)

        holder = slots[self._token] if self._token is not None else None
        if holder is not None and (not holder.live):
            holder = None

        # Highest priority: the token holder's atomic.
        if (
            holder is not None
            and holder.next_atomic
            and holder.ready
            and not holder.at_barrier
        ):
            if holder.gate_ok:
                self._pass_token_slots(slots, holder.warp.hw_slot)
                return holder.warp, None
            # Gated (buffer full / flush): holder keeps the token so the
            # deterministic order is preserved; non-atomic work continues.
            if (holder.gate_reason or STALL_GATE_BUFFER) == STALL_GATE_BUFFER:
                self.gate_blocked_warp = holder.warp

        issuable = [
            s for s in live
            if s.ready and not s.at_barrier and not s.next_atomic
        ]
        pick = self._gto_pick(issuable, self._gto._last_uid)
        if pick is not None:
            self._gto._last_uid = pick.warp.uid
            return pick.warp, None

        if (
            holder is not None
            and holder.next_atomic
            and holder.ready
            and not holder.gate_ok
        ):
            return None, holder.gate_reason or STALL_GATE_BUFFER
        if any(s.ready and s.next_atomic and not s.at_barrier for s in live):
            return None, STALL_TOKEN
        return None, self._fallback_reason(live)

    def reset_for_drain(self):
        self._gto.reset_for_drain()
        self._token = None


REFERENCE = {
    "gto": GTOScheduler,
    "srr": SRRScheduler,
    "gtrr": GTRRScheduler,
    "gtar": GTARScheduler,
    "gwat": GWATScheduler,
}
