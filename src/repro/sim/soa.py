"""Warp timing state as plain-list scheduler rows (DESIGN §12).

Every placed warp's timing fields live in exactly one place: a cell of
a per-(SM, scheduler) *row*, one plain Python list per field, indexed
by the warp's hardware slot.  :class:`~repro.arch.warp.Warp` properties
read and write ``row[col]`` directly, and the run loop scans whole
rows, so both see the same cells.

Layout
------

Row ``r = sm_id * schedulers_per_sm + scheduler_id``; column = the
warp's local hardware slot.  Rows are created once and only ever
mutated in place, so an SM or a warp may hold a reference to a row
list for the lifetime of the GPU.  Cells hold exact Python ``int`` /
``bool`` values; a stray numpy scalar would be stored as-is, so the
row-purity unit test checks the cell types after real runs.

Ownership: a cell is written only through its bound warp (or by
``bind_slab``/``unbind_slab`` at CTA placement).  Standalone warps —
the ISA oracle, the model checker, unit tests — own one-cell rows of
their own and are never bound.

The ``active``/``pc`` cells are caches of ``not warp.done`` and the
SIMT stack's PC, refreshed by ``Warp.step``; the run loop reads them
instead of the warps.  The bound-warp setters record every cell write
in the scheduler dirty flags, the visit agenda and the wake heap
below, and the run loop drains them.  An armed ``wake`` invariant
(:mod:`repro.faults.invariants`) checks all of these against the warps.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Set


class WarpSlabs:
    """GPU-wide warp timing rows plus the run loop's agendas."""

    def __init__(self, num_sms: int, schedulers_per_sm: int,
                 slots_per_scheduler: int):
        self.schedulers_per_sm = schedulers_per_sm
        rows = num_sms * schedulers_per_sm
        cols = slots_per_scheduler

        # -- per-warp-slot rows (warp-owned) ---------------------------
        self.ready_cycle = [[0] * cols for _ in range(rows)]
        self.out_loads = [[0] * cols for _ in range(rows)]
        self.out_atoms = [[0] * cols for _ in range(rows)]
        self.at_barrier = [[False] * cols for _ in range(rows)]
        #: live (placed and not done): the run loop's ``not w.done``.
        self.active = [[False] * cols for _ in range(rows)]
        #: current PC (stale once inactive; read only for live warps).
        self.pc = [[0] * cols for _ in range(rows)]

        #: per-scheduler dirty flags: set by every bound-warp cell write
        #: and by pop_due; the issue phase skips a clean scheduler.
        self.sched_dirty: List[bool] = [True] * rows

        #: DAB buffer summaries maintained by AtomicBuffer on its
        #: insert/drain/mark-full transitions: the flush trigger and
        #: kernel-drain checks read these instead of walking every
        #: buffer.
        self.buf_nonempty_count = 0
        self.buf_full_count = 0

        # -- incremental visit agenda ----------------------------------
        #: SM ids with a dirty scheduler or a baseline wait to re-check;
        #: fed by the warp setters, pop_due and store acks, and drained
        #: by the issue phase.
        self.visit_dirty = set(range(num_sms))
        #: lazy min-heap of (ready_cycle, row, col) per-warp wake
        #: candidates, pushed by the warp setters while the warp is
        #: eligible (live, not at a barrier, nothing outstanding) and
        #: validated against the rows when popped.
        self.warp_wake: List = []
        #: rows of schedulers asleep on an atomic-issue gate (DESIGN
        #: §12): clean, with their stall window open under the gate's
        #: reason.  A flush start or end wakes them all, a batch
        #: advance those of its SM.
        self.gate_sleepers: Set[int] = set()

    # ------------------------------------------------------------------
    def pop_due(self, now: int) -> None:
        """Dirty the schedulers of warps whose wake time has arrived.

        Pops every entry due by ``now``.  One the rows still corroborate
        dirties its row and puts its SM on the visit agenda; any other
        was superseded by a later cell write, which dirtied the row
        itself, and is dropped.
        """
        heap = self.warp_wake
        rc_s = self.ready_cycle
        act = self.active
        bar = self.at_barrier
        ol = self.out_loads
        oa = self.out_atoms
        dirty = self.sched_dirty
        vd = self.visit_dirty
        s = self.schedulers_per_sm
        while heap and heap[0][0] <= now:
            rc, r, c = heapq.heappop(heap)
            if (rc_s[r][c] == rc and act[r][c] and not bar[r][c]
                    and ol[r][c] == 0 and oa[r][c] == 0):
                dirty[r] = True
                vd.add(r // s)

    def wake_gate_sleepers(self, sm_id: Optional[int] = None) -> None:
        """Dirty the gate-sleeping schedulers (of SM ``sm_id`` only, if
        given) and put their SMs on the visit agenda."""
        sleepers = self.gate_sleepers
        if not sleepers:
            return
        s = self.schedulers_per_sm
        if sm_id is None:
            woken = list(sleepers)
        else:
            woken = [r for r in range(sm_id * s, sm_id * s + s)
                     if r in sleepers]
        for r in woken:
            sleepers.discard(r)
            self.sched_dirty[r] = True
            self.visit_dirty.add(r // s)

    def next_wake(self, now: int):
        """Min future ``ready_cycle`` among eligible warps, or None.

        Pops entries that can never match again (wake time reached, or
        the cell moved on) and returns the first entry the rows still
        corroborate.  A due entry popped here was pushed after this
        cycle's pop_due, by a write that dirtied its row itself.
        Completeness: every cell write on a bound warp pushes while the
        warp is eligible (warp setters + bind_slab), so each
        currently-eligible warp with a future wake has a live entry.
        """
        heap = self.warp_wake
        rc_s = self.ready_cycle
        act = self.active
        bar = self.at_barrier
        ol = self.out_loads
        oa = self.out_atoms
        while heap:
            rc, r, c = heap[0]
            if (rc > now and rc_s[r][c] == rc and act[r][c]
                    and not bar[r][c] and ol[r][c] == 0 and oa[r][c] == 0):
                return rc
            heapq.heappop(heap)
        return None
