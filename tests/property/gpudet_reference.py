"""GPUDet's issue consult as it was before it read the scheduler rows,
frozen as the reference.

Here the consult takes the warp: ``holds`` reads the warp's
``at_barrier`` property, and ``can_issue`` asks the warp whether its
next instruction is an atomic, through the SIMT stack's ``done`` and
``pc``.  The simulator's :class:`repro.gpudet.gpudet.GPUDetController`
reads the cells of the warp's scheduler row at ``(row, slot)`` instead.
``test_prop_gpudet_reference.py`` drives both side by side.  Kept as it
was; do not edit it to make that property pass.
"""

from __future__ import annotations

PARALLEL = "parallel"


def next_is_atomic(warp) -> bool:
    """Whether the warp's next instruction is an atomic."""
    if warp.exited or warp.stack.done:
        return False
    return warp.program.instrs[warp.stack.pc].atomic


def holds(ctrl, warp) -> bool:
    """GPUDet already holds ``warp``: no parallel mode, its quantum
    over, or waiting at a barrier."""
    return (ctrl.mode != PARALLEL
            or ctrl._live[warp.uid].reason is not None
            or warp.at_barrier)


def can_issue(ctrl, warp) -> bool:
    if holds(ctrl, warp):
        return False
    if next_is_atomic(warp):
        # Atomics may not execute in parallel mode: end the quantum.
        ctrl._live[warp.uid].reason = "atomic"
        ctrl.gpu._gpudet_dirty = True  # tick() reads the reasons
        return False
    return True
