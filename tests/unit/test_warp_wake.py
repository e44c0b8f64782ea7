"""The single wake path of the event-driven run loop.

The run loop examines a scheduler only while its dirty flag is set.
That flag, the SM visit agenda and the ``warp_wake`` heap are written
only by ``Warp.bind_slab``, the bound warp's timing-cell setters and
``WarpSlabs.pop_due``; these tests pin what each of them records.
"""

from heapq import heappush

import pytest

from repro.arch.isa import assemble
from repro.arch.kernel import CTA, Kernel
from repro.arch.warp import Warp
from repro.sim.soa import WarpSlabs

PROG = assemble("    mov.s32 r_a, 1\n    exit")
SCHEDULERS = 2
SM_ID, SCHED, SLOT = 1, 1, 2
ROW = SM_ID * SCHEDULERS + SCHED


def _slabs():
    s = WarpSlabs(num_sms=2, schedulers_per_sm=SCHEDULERS,
                  slots_per_scheduler=4)
    _clear(s)
    return s


def _clear(s):
    s.sched_dirty[:] = [False] * len(s.sched_dirty)
    s.visit_dirty.clear()
    s.warp_wake.clear()


def _warp():
    cta = CTA(Kernel("k", PROG, grid_dim=1, cta_dim=32), 0)
    return Warp(uid=1, cta=cta, warp_id_in_cta=0, warp_size=32,
                sm_id=SM_ID, scheduler_id=SCHED, hw_slot=SLOT)


def _assert_recorded(s, wake):
    """Only this warp's row is dirty, only its SM is on the agenda, and
    exactly ``wake`` was pushed."""
    assert s.sched_dirty == [r == ROW for r in range(len(s.sched_dirty))]
    assert s.visit_dirty == {SM_ID}
    assert s.warp_wake == wake


@pytest.mark.parametrize("outstanding", [0, 1], ids=["eligible", "blocked"])
def test_bind_slab_records_wake(outstanding):
    w = _warp()
    w.ready_cycle = 7
    w.outstanding_loads = outstanding
    s = _slabs()
    w.bind_slab(s, ROW, SLOT)
    _assert_recorded(s, [(7, ROW, SLOT)] if not outstanding else [])


#: (writes before, the write under test, warp eligible after it).
SETTER_CASES = [
    ({}, ("ready_cycle", 9), True),
    ({"outstanding_loads": 1}, ("ready_cycle", 9), False),
    ({"at_barrier": True}, ("ready_cycle", 9), False),
    ({}, ("outstanding_loads", 2), False),
    ({"outstanding_loads": 1}, ("outstanding_loads", 0), True),
    ({}, ("outstanding_atoms", 1), False),
    ({"outstanding_atoms": 1}, ("outstanding_atoms", 0), True),
    ({}, ("at_barrier", True), False),
    ({"at_barrier": True}, ("at_barrier", False), True),
    ({}, ("exited", True), False),
]


@pytest.mark.parametrize(
    "setup,write,eligible", SETTER_CASES,
    ids=[f"{w[0]}={w[1]}" + ("-from-" + "-".join(setup) if setup else "")
         for setup, w, _ in SETTER_CASES])
def test_setter_records_wake(setup, write, eligible):
    w = _warp()
    s = _slabs()
    w.bind_slab(s, ROW, SLOT)
    w.ready_cycle = 4
    for name, value in setup.items():
        setattr(w, name, value)
    _clear(s)
    name, value = write
    setattr(w, name, value)
    _assert_recorded(s, [(w.ready_cycle, ROW, SLOT)] if eligible else [])


def test_pop_due_dirties_only_corroborated_due_rows():
    s = _slabs()
    for row in s.active:
        row[:] = [True] * len(row)
    # Row 0: due and still corroborated.
    s.ready_cycle[0][0] = 5
    # Row 1: the cell moved on since the push; another slot went idle.
    s.ready_cycle[1][0] = 8
    s.ready_cycle[1][1] = 4
    s.active[1][1] = False
    # Row 2: due, but now at a barrier or waiting on an atomic.
    s.ready_cycle[2][0] = 6
    s.at_barrier[2][0] = True
    s.ready_cycle[2][1] = 7
    s.out_atoms[2][1] = 1
    # Row 3 (SM 1): one slot due, one corroborated but not yet due.
    s.ready_cycle[3][0] = 9
    s.ready_cycle[3][1] = 11
    for entry in [(5, 0, 0), (5, 1, 0), (4, 1, 1), (6, 2, 0), (7, 2, 1),
                  (9, 3, 0), (11, 3, 1)]:
        heappush(s.warp_wake, entry)

    s.pop_due(10)

    assert s.sched_dirty == [True, False, False, True]
    assert s.visit_dirty == {0, 1}
    assert s.warp_wake == [(11, 3, 1)]
