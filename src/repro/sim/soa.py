"""Warp timing state as plain-list scheduler rows (DESIGN §16).

Every placed warp's timing fields live in exactly one place: a cell of
a per-(SM, scheduler) *row*, one plain Python list per field, indexed
by the warp's hardware slot.  :class:`~repro.arch.warp.Warp` properties
read and write ``row[col]`` directly, so the polling engine (through
the properties) and the event-driven engine (scanning whole rows) see
the same cells.

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
SIMT stack's PC, refreshed by ``Warp.step``; only the fast engine reads
them.  The same holds for the calendars, agendas and wake heaps below.

``NEVER`` is the wake-calendar sentinel for "no time-driven wake":
far enough in the future to never be reached (the cycle limit is
~2e8).
"""

from __future__ import annotations

import heapq
from typing import List

#: Wake-calendar sentinel: "this scheduler never wakes by time alone".
NEVER = 1 << 62


class WarpSlabs:
    """GPU-wide warp timing rows plus the fast engine's calendars."""

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
        #: live (placed and not done): the fast engine's ``not w.done``.
        self.active = [[False] * cols for _ in range(rows)]
        #: current PC (stale once inactive; read only for live warps).
        self.pc = [[0] * cols for _ in range(rows)]

        # -- per-scheduler calendars (SM-owned) ------------------------
        self.sched_dirty: List[bool] = [True] * rows
        self.sched_wake: List[int] = [NEVER] * rows

        # -- per-SM state ----------------------------------------------
        self.sm_release_dirty: List[bool] = [True] * num_sms

        #: DAB buffer summaries maintained by AtomicBuffer on its
        #: insert/drain/mark-full transitions: the flush trigger and
        #: kernel-drain checks of the fast engine read these instead of
        #: walking every buffer.
        self.buf_nonempty_count = 0
        self.buf_full_count = 0

        # -- incremental visit agenda (fast engine) --------------------
        #: SM ids with a dirty scheduler or pending release poll; fed by
        #: SM._touch/touch_all and drained by the issue phase.
        self.visit_dirty = set(range(num_sms))
        #: lazy min-heap of (wake_cycle, row) pushed when a scheduler
        #: freezes with a time-driven wake; entries are validated
        #: against sched_wake at pop time (stale ones are discarded).
        self.wake_heap: List = []
        #: lazy min-heap of (ready_cycle, row, col) per-warp wake
        #: candidates, pushed by the warp setters on every eligibility
        #: transition (see Warp.ready_cycle.setter) and validated
        #: against the rows at peek time.
        self.warp_wake: List = []

    # ------------------------------------------------------------------
    def push_wake(self, row: int, wake: int) -> None:
        """Register a scheduler freeze with a time-driven wake."""
        heapq.heappush(self.wake_heap, (wake, row))

    def pop_due(self, now: int) -> None:
        """Move schedulers whose wake time has arrived onto the agenda.

        An entry is live only if the row's current freeze still carries
        the recorded wake; anything else (re-frozen, woken by an event,
        gone idle) was superseded and is dropped.
        """
        heap = self.wake_heap
        if not heap:
            return
        wakes = self.sched_wake
        vd = self.visit_dirty
        s = self.schedulers_per_sm
        while heap and heap[0][0] <= now:
            w, row = heapq.heappop(heap)
            if wakes[row] == w:
                vd.add(row // s)

    def earliest_wake_heap(self, now: int):
        """Min future ``ready_cycle`` among eligible warps, or None.

        Pops entries that can never match again (wake time reached, or
        the cell moved on) and returns the first entry the rows still
        corroborate.  Completeness: every eligibility transition pushes
        (warp setters + bind_slab), so each currently-eligible warp
        with a future wake has a live entry.
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
