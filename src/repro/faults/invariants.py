"""Runtime protocol invariant checking for the DAB flush machinery.

Mirrors the :mod:`repro.obs` wiring pattern: an
:class:`InvariantConfig` says *what to assert*, the GPU builds one
:class:`InvariantChecker` and hands it to every component, and
components guard every check site with ``if self.inv is not None`` so a
run with checking disabled never pays a call.

The invariant catalog (each maps to a protocol guarantee from the
paper's Section IV-D flush state machine):

``flush_counts``
    Every flush round's arrivals match its pre-flush expected counts: no
    entry from an unannounced SM, no SM sending more than it announced,
    and no round left incomplete when the next begins or the simulation
    deadlocks.  Detects dropped and duplicated flush entries.
``buffer_capacity``
    Atomic-buffer occupancy never exceeds configured capacity.
``batch_order``
    Batch *i* atomics fully drain before any batch *i+1* atomic enters
    a buffer (GPUDet-style epoch ordering of the buffered path).
``rop_order``
    The reorder buffer releases transactions to the ROP in exactly the
    round-robin-across-SM order recomputed independently by the checker
    from the expected counts.
``wake``
    The run engine's incremental issue state matches a full rescan of
    the warps: every timing-ready warp's scheduler is dirty and its SM
    on the visit agenda, unless a recomputed, side-effect-free
    predicate says an examination would repeat the scheduler's sleep
    (a gate sleeper: the warp waits at an atomic whose gate is still
    closed with the reason the sleep books, or the policy's in-order
    warp does; a GPUDet-held sleeper: GPUDet still holds the warp);
    every dirty scheduler's SM is on the agenda, the ``active``/``pc``
    cells match the warps, each scheduler's live-slot lists hold the
    active slots (in slot order, and in ascending warp uid), the buffer
    counters match the buffers, and no fast-forward passes (and no
    deadlock ignores) an eligible warp's wake time.  Not a protocol
    guarantee: a failure is always a simulator bug, so no config flag
    turns it off.

Violations raise :class:`InvariantViolation` naming the invariant, the
cycle, the unit (buffer / partition / SM), and — when a fault injector
is wired — the most recent injected corruption, so a chaos campaign's
failure output reads as a diagnosis, not a stack trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.schedulers import GATE_STALLS, STALL_MEM


class InvariantViolation(RuntimeError):
    """A runtime protocol invariant failed.

    Attributes are machine-readable so tests and the chaos harness can
    assert on them: ``invariant`` (catalog name), ``cycle``, ``unit``
    (e.g. ``"partition.1"`` or ``"sm.3.red.0"``), ``detail`` (free
    text), ``fault`` (description of the last injected corruption, or
    None when no injector is active).
    """

    def __init__(self, invariant: str, cycle: int, unit: str, detail: str,
                 fault: Optional[str] = None):
        self.invariant = invariant
        self.cycle = cycle
        self.unit = unit
        self.detail = detail
        self.fault = fault
        msg = (f"invariant {invariant!r} violated at cycle {cycle} "
               f"in {unit}: {detail}")
        if fault is not None:
            msg += f" (active fault: {fault})"
        super().__init__(msg)

    def __reduce__(self):
        # Default exception pickling replays ``cls(*args)`` with
        # ``args == (msg,)``, which does not match this __init__ — the
        # sweep engine's worker boundary would then flatten structured
        # blame into a bare traceback string.  Rebuild from the
        # structured fields instead so violations cross process
        # boundaries intact.
        return (InvariantViolation,
                (self.invariant, self.cycle, self.unit, self.detail,
                 self.fault))


@dataclass(frozen=True)
class InvariantConfig:
    """Which invariants to assert.  All on by default."""

    flush_counts: bool = True
    buffer_capacity: bool = True
    batch_order: bool = True
    rop_order: bool = True

    @property
    def enabled(self) -> bool:
        return (self.flush_counts or self.buffer_capacity
                or self.batch_order or self.rop_order)


def _eligible(w) -> bool:
    """Live, not at a barrier, nothing outstanding: wakes by time alone."""
    return not (w.done or w.at_barrier or w.outstanding_loads
                or w.outstanding_atoms)


def _inorder_gated(sm, s: int, reason: str, now: int) -> bool:
    """Scheduler ``s``'s in-order warp, named by its policy from gates
    recomputed with ``SM.gate_reason``, is timing-ready at an atomic
    whose gate is closed with ``reason``."""
    row = sm.rows[s]
    warps = row.warps
    gates = {}
    for i in row.live:
        w = warps[i]
        if not w.at_barrier and w.next_is_atomic():
            gate = sm.gate_reason(w)
            if gate:
                gates[i] = gate
    i = sm.schedulers[s].inorder_slot(row, gates)
    return (i is not None and _eligible(warps[i])
            and warps[i].ready_cycle <= now and gates.get(i) == reason)


def _sleep_breach(sm, s: int, w, window: Optional[str], now: int) -> str:
    """Why scheduler ``s`` of ``sm``, clean with its stall window open
    under ``window``, may not leave the timing-ready warp ``w``
    unexamined; "" when an examination would repeat its sleep."""
    if window in GATE_STALLS:
        if _inorder_gated(sm, s, window, now):
            return ""
        gate = sm.gate_reason(w) if w.next_is_atomic() else "no atomic"
        if gate == window:
            return ""
        return (f"sleeps on {window!r} while the warp's gate is "
                f"{gate or 'open'!r}")
    if window == STALL_MEM and sm._gto_held:
        if sm.gpu.gpudet.holds(w):
            return ""
        return "sleeps on 'mem' while GPUDet holds the warp no longer"
    return "will not be examined"


def _earliest_warp_wake(gpu, now: int):
    """``(ready_cycle, unit, warp uid)`` of the eligible warp with the
    earliest future wake, by a full scan of the live SMs, or None."""
    best = None
    for sm in gpu.sms:
        if not sm.live_count:
            continue
        for s, table in enumerate(sm.sched_slots):
            for w in table:
                if (w is not None and _eligible(w) and w.ready_cycle > now
                        and (best is None or w.ready_cycle < best[0])):
                    best = (w.ready_cycle, f"sm.{sm.sm_id}.sched.{s}", w.uid)
    return best


class _Round:
    """Checker-side shadow of one partition's flush round."""

    __slots__ = ("expected", "received", "order", "released")

    def __init__(self, expected: Dict[int, int]):
        self.expected = dict(expected)
        self.received = {sm: 0 for sm in expected}
        # Independent recomputation of the deterministic commit order —
        # deliberately NOT shared with FlushReorderBuffer, so a bug in
        # either is a disagreement, not a silent agreement.
        self.order: List[Tuple[int, int]] = []
        if expected:
            for seq in range(max(expected.values())):
                for sm in sorted(expected):
                    if seq < expected[sm]:
                        self.order.append((sm, seq))
        self.released = 0

    @property
    def complete(self) -> bool:
        return self.received == self.expected

    def shortfall(self) -> str:
        parts = [
            f"sm {sm}: got {self.received[sm]}/{self.expected[sm]}"
            for sm in sorted(self.expected)
            if self.received[sm] != self.expected[sm]
        ]
        return ", ".join(parts) or "no shortfall"


class InvariantChecker:
    """Live invariant state for one simulation run.

    Bookkeeping is unconditional once the checker exists (it must track
    rounds to judge later events); the config flags gate only whether a
    discrepancy *raises*.  The zero-cost-when-off property lives one
    level up: a GPU built without invariants has ``inv = None`` and no
    component ever calls in here.
    """

    def __init__(self, config: Optional[InvariantConfig] = None,
                 fault_source: Optional[Callable[[], Optional[str]]] = None,
                 obs=None):
        self.config = config or InvariantConfig()
        #: mirrored from the GPU main loop, like ``Observability.cycle``.
        self.cycle = 0
        #: total check calls (proof-of-liveness for tests and reports).
        self.checks = 0
        #: violations raised (normally 0 or the run died on 1).
        self.violations = 0
        self._fault_source = fault_source
        self._obs = obs
        self._rounds: Dict[int, _Round] = {}

    # ------------------------------------------------------------------
    def _fail(self, invariant: str, unit: str, detail: str) -> None:
        self.violations += 1
        fault = self._fault_source() if self._fault_source is not None else None
        if self._obs is not None:
            self._obs.emit_at(self.cycle, "fault", "violation",
                              invariant=invariant, unit=unit, detail=detail)
        raise InvariantViolation(invariant, self.cycle, unit, detail, fault)

    # -- buffer_capacity ------------------------------------------------
    def check_buffer_occupancy(self, name: str, occupancy: int,
                               capacity: int) -> None:
        self.checks += 1
        if occupancy > capacity and self.config.buffer_capacity:
            self._fail(
                "buffer_capacity", name,
                f"occupancy {occupancy} exceeds capacity {capacity}",
            )

    # -- batch_order ----------------------------------------------------
    def check_batch_order(self, sm_id: int, warp_batch: int,
                          current_batch: int) -> None:
        self.checks += 1
        if warp_batch > current_batch and self.config.batch_order:
            self._fail(
                "batch_order", f"sm.{sm_id}",
                f"batch {warp_batch} atomic buffered before batch "
                f"{current_batch} drained",
            )

    # -- flush_counts / rop_order ---------------------------------------
    def begin_flush_round(self, partition_id: int,
                          expected: Dict[int, int]) -> None:
        self.checks += 1
        prev = self._rounds.get(partition_id)
        if prev is not None and not prev.complete \
                and self.config.flush_counts:
            self._fail(
                "flush_counts", f"partition.{partition_id}",
                f"new flush round began with the previous round "
                f"incomplete ({prev.shortfall()})",
            )
        self._rounds[partition_id] = _Round(expected)

    def on_flush_arrival(self, partition_id: int, sm_id: int) -> None:
        self.checks += 1
        rnd = self._rounds.get(partition_id)
        unit = f"partition.{partition_id}"
        if rnd is None:
            if self.config.flush_counts:
                self._fail("flush_counts", unit,
                           f"flush entry from sm {sm_id} arrived outside "
                           f"any round")
            return
        if sm_id not in rnd.expected:
            if self.config.flush_counts:
                self._fail("flush_counts", unit,
                           f"flush entry from unannounced sm {sm_id} "
                           f"(announced: {sorted(rnd.expected)})")
            return
        if rnd.received[sm_id] >= rnd.expected[sm_id]:
            if self.config.flush_counts:
                self._fail(
                    "flush_counts", unit,
                    f"sm {sm_id} sent more entries than announced "
                    f"(expected {rnd.expected[sm_id]})",
                )
            return
        rnd.received[sm_id] += 1

    def on_flush_release(self, partition_id: int, sm_id: int,
                         seq: int) -> None:
        """One transaction was released to the ROP: must be next in order."""
        self.checks += 1
        rnd = self._rounds.get(partition_id)
        if rnd is None:
            return
        if rnd.released < len(rnd.order):
            want_sm, want_seq = rnd.order[rnd.released]
            if (sm_id, seq) != (want_sm, want_seq) and self.config.rop_order:
                self._fail(
                    "rop_order", f"partition.{partition_id}",
                    f"ROP applied (sm {sm_id}, seq {seq}) but round-robin "
                    f"order requires (sm {want_sm}, seq {want_seq}) at "
                    f"position {rnd.released}",
                )
        rnd.released += 1

    def on_late_arrival(self, partition_id: int, sm_id: int) -> None:
        """A flush entry arrived after its flush round already completed."""
        self.checks += 1
        if self.config.flush_counts:
            self._fail(
                "flush_counts", f"partition.{partition_id}",
                f"flush entry from sm {sm_id} arrived after its flush "
                f"completed (duplicated or stale entry)",
            )

    # -- wake -----------------------------------------------------------
    # The run loop examines a scheduler only while its row is dirty and
    # visits an SM only while it is on the agenda (DESIGN §12).  These
    # scans recompute from the warps what that incremental state must
    # hold.  They only read, and visit only SMs with live warps.
    def check_issue_agenda(self, gpu, now: int) -> None:
        """At an issue phase, after ``pop_due``."""
        self.checks += 1
        soa = gpu.soa
        dirty = soa.sched_dirty
        agenda = soa.visit_dirty
        for sm in gpu.sms:
            if not sm.live_count:
                continue
            on_agenda = sm.sm_id in agenda
            for s, table in enumerate(sm.sched_slots):
                r = sm.row0 + s
                if dirty[r] and not on_agenda:
                    self._fail("wake", f"sm.{sm.sm_id}.sched.{s}",
                               "scheduler is dirty but its SM is off the "
                               "visit agenda")
                examined = dirty[r] and on_agenda
                # What the window of a clean scheduler books.
                window = None if examined else sm._acct_reason[s]
                act, pc = soa.active[r], soa.pc[r]
                for i, w in enumerate(table):
                    if w is None:
                        continue
                    if act[i] == w.done:
                        self._fail("wake", f"sm.{sm.sm_id}.sched.{s}",
                                   f"warp {w.uid}: active cell {act[i]} "
                                   f"but done={w.done}")
                    if w.done:
                        continue
                    if pc[i] != w.pc:
                        self._fail("wake", f"sm.{sm.sm_id}.sched.{s}",
                                   f"warp {w.uid}: pc cell {pc[i]} but "
                                   f"pc {w.pc}")
                    if (not examined and _eligible(w)
                            and w.ready_cycle <= now):
                        breach = _sleep_breach(sm, s, w, window, now)
                        if breach:
                            self._fail("wake", f"sm.{sm.sm_id}.sched.{s}",
                                       f"warp {w.uid} ready since cycle "
                                       f"{w.ready_cycle} but its scheduler "
                                       f"{breach}")
                row = sm.rows[s]
                live = [i for i, a in enumerate(act) if a]
                if row.live != live:
                    self._fail("wake", f"sm.{sm.sm_id}.sched.{s}",
                               f"live slots {row.live} but active cells "
                               f"at {live}")
                order = row.order
                if sorted(order) != live or any(
                        table[a].uid > table[b].uid
                        for a, b in zip(order, order[1:])):
                    self._fail("wake", f"sm.{sm.sm_id}.sched.{s}",
                               f"placement order {order} is not the "
                               f"active slots {live} by warp uid")
        if gpu.flush is not None:
            bufs = [b for sm in gpu.sms for b in sm.buffers]
            counts = (sum(b.non_empty for b in bufs),
                      sum(b.full for b in bufs))
            if counts != (soa.buf_nonempty_count, soa.buf_full_count):
                self._fail("wake", "buffers",
                           f"counters say {soa.buf_nonempty_count} "
                           f"non-empty / {soa.buf_full_count} full, the "
                           f"buffers {counts[0]} / {counts[1]}")

    def check_fast_forward(self, gpu, now: int,
                           target: Optional[int]) -> None:
        """Before a jump to ``target``, or before a deadlock error
        (``target`` None): no eligible warp's wake is passed or
        ignored."""
        self.checks += 1
        wake = _earliest_warp_wake(gpu, now)
        if wake is not None and (target is None or target > wake[0]):
            cycle, unit, uid = wake
            action = ("declares a deadlock" if target is None
                      else f"jumps to cycle {target}")
            self._fail("wake", unit,
                       f"warp {uid} wakes at cycle {cycle} but the run "
                       f"loop {action}")

    # -- deadlock post-mortem -------------------------------------------
    def explain_deadlock(self, cycle: int, flush_controller) -> None:
        """Called from the GPU deadlock branch before SimulationError.

        A dropped flush entry does not raise at the drop site — the
        protocol simply waits forever for the missing arrival.  This
        post-mortem turns that silent hang into a structured violation
        naming the short partition and SM.
        """
        self.cycle = cycle
        if not self.config.flush_counts:
            return
        self.checks += 1
        for pid in sorted(self._rounds):
            rnd = self._rounds[pid]
            if not rnd.complete:
                self._fail(
                    "flush_counts", f"partition.{pid}",
                    f"deadlock with flush round incomplete "
                    f"({rnd.shortfall()})",
                )
        if flush_controller is not None:
            for key, state in sorted(flush_controller._active.items()):
                if state.get("remaining_ops", 0) > 0:
                    self._fail(
                        "flush_counts", f"flush.{key}",
                        f"deadlock with flush {state.get('seq')} still "
                        f"waiting on {state['remaining_ops']} op(s)",
                    )
