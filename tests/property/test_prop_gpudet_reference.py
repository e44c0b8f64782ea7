"""Property: GPUDet's row consult equals the frozen warp-based consult.

Each example places one to four live warps on a scheduler row, bound to
its cells as an SM binds them, and draws the controller's mode, each
warp's quantum reason, barrier cell, readiness (ready, later, or one
load or atomic outstanding) and pc (at a non-atomic instruction, at a
``red``, or at ``exit``), and the initial ``_gpudet_dirty`` flag.  The
consult then runs as ``SM.issue_cycle_fast`` runs it: ``can_issue``
on every timing-ready live slot, a refusal putting the slot in
``held``.  Run once with :class:`~repro.gpudet.gpudet.GPUDetController`
(``holds``/``can_issue`` over ``(row, slot)``) and once, from the same
state, with the frozen ``tests/property/gpudet_reference.py`` (over the
warp), the hold decision of every live slot before and after, the held
slots, the quantum reason of every warp and ``_gpudet_dirty`` must
agree.

Runs derandomized; ``--hypothesis-seed=N`` draws a different set.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.arch.isa import assemble
from repro.arch.kernel import CTA, Kernel
from repro.arch.warp import Warp
from repro.core.schedulers import SchedRow
from repro.gpudet.gpudet import (
    COMMIT,
    PARALLEL,
    SERIAL,
    GPUDetConfig,
    GPUDetController,
)
from repro.memory.globalmem import GlobalMemory
from repro.sim.soa import WarpSlabs
from tests.property import gpudet_reference as ref

#: pc 0 a non-atomic instruction, pc 1 an atomic, pc 2 ``exit``.
_PROGRAM = assemble("""
    add.s32 r_a, r_a, 1
    red.global.add.s32 [r_a], 1
    exit
""")
_KERNEL = Kernel("t", _PROGRAM, grid_dim=64, cta_dim=32)
NOW = 10
#: parallel mode drawn more often: the other two hold every warp.
MODES = (PARALLEL, PARALLEL, PARALLEL, COMMIT, SERIAL)
REASONS = (None, None, "atomic", "barrier", "budget")
TIMINGS = ("ready", "ready", "later", "load", "atom")


@st.composite
def rows(draw):
    nslots = draw(st.integers(1, 4))
    slots = sorted(draw(st.lists(st.integers(0, nslots - 1), min_size=1,
                                 max_size=nslots, unique=True)))
    warps = [(slot, draw(st.sampled_from(REASONS)), draw(st.booleans()),
              draw(st.sampled_from(TIMINGS)), draw(st.integers(0, 2)))
             for slot in slots]
    return nslots, draw(st.sampled_from(MODES)), draw(st.booleans()), warps


def _build(nslots, mode, dirty, warps):
    """A controller over one row holding ``warps``, as an SM leaves
    them after placement and some run time."""
    slabs = WarpSlabs(1, 1, nslots)
    table = [None] * nslots
    row = SchedRow(table, slabs.active[0], slabs.at_barrier[0],
                   slabs.ready_cycle[0], slabs.out_loads[0],
                   slabs.out_atoms[0], slabs.pc[0])
    row.atomic = [ins.atomic for ins in _PROGRAM.instrs]
    gpu = SimpleNamespace(mem=GlobalMemory(), _gpudet_dirty=False,
                          sms=[SimpleNamespace(rows=[row])])
    ctrl = GPUDetController(gpu, GPUDetConfig())
    placed = []
    for uid, (slot, _reason, _bar, _timing, _pc) in enumerate(warps, 1):
        w = Warp(uid=uid, cta=CTA(kernel=_KERNEL, cta_id=uid),
                 warp_id_in_cta=0, warp_size=32, sm_id=0, scheduler_id=0,
                 hw_slot=slot)
        w.bind_slab(slabs, 0, slot)
        table[slot] = w
        row.add(slot)
        placed.append(w)
    ctrl.on_cta_placed(placed)
    for w, (slot, reason, bar, timing, pc) in zip(placed, warps):
        ctrl._live[w.uid].reason = reason
        w.at_barrier = bar
        w.ready_cycle = NOW + (2 if timing == "later" else 0)
        w.outstanding_loads = int(timing == "load")
        w.outstanding_atoms = int(timing == "atom")
        w.stack.jump(pc)
        row.pc[slot] = pc  # the cell Warp.step keeps equal to the stack
    ctrl.mode = mode
    gpu._gpudet_dirty = dirty
    return ctrl, row


def _consult(ctrl, row, holds, can_issue):
    """The SM's consult pass with ``holds(slot)``/``can_issue(slot)``:
    the observable outcome."""
    before = [holds(i) for i in row.live]
    held = set()
    rc, ol, oa = row.rc, row.ol, row.oa
    for i in row.live:
        if ol[i] == 0 and oa[i] == 0 and rc[i] <= NOW and not can_issue(i):
            held.add(i)
    return (before, held, [holds(i) for i in row.live],
            {uid: st.reason for uid, st in ctrl._live.items()},
            ctrl.gpu._gpudet_dirty)


def test_row_consult_equals_reference(request):
    seeded = request.config.getoption("--hypothesis-seed") is not None

    @settings(max_examples=300, deadline=None, derandomize=not seeded)
    @given(rows())
    def check(drawn):
        ctrl, row = _build(*drawn)
        reasons = {uid: st.reason for uid, st in ctrl._live.items()}
        dirty = ctrl.gpu._gpudet_dirty
        got = _consult(ctrl, row, lambda i: ctrl.holds(row, i),
                       lambda i: ctrl.can_issue(row, i))
        for uid, st in ctrl._live.items():
            st.reason = reasons[uid]
        ctrl.gpu._gpudet_dirty = dirty
        want = _consult(ctrl, row,
                        lambda i: ref.holds(ctrl, row.warps[i]),
                        lambda i: ref.can_issue(ctrl, row.warps[i]))
        assert got == want

    check()
