"""``SIMTStack`` as it was before ``advance`` and ``jump`` skipped the
reconvergence walk, frozen as the reference.

Here every transition ends in ``_maybe_reconverge``.  The simulator's
stack (:class:`repro.arch.simt_stack.SIMTStack`) calls it from
``advance`` and ``jump`` only when the new pc is the top entry's
reconvergence pc.  ``test_prop_simt_reference.py`` drives both side by
side.  Kept as it was; do not edit it to make that property pass.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np


class ReferenceSIMTStack:
    """Stack of ``(reconv_pc, pc, active_mask)`` entries.

    The top entry defines the warp's current PC and active mask.  ``-1``
    is used as "no reconvergence point" for the base entry.  A mask is
    replaced, never written in place (``Warp.step`` keys its active-lane
    count on the mask object).
    """

    __slots__ = ("_entries", "warp_size")

    def __init__(self, warp_size: int, start_pc: int, initial_mask: np.ndarray):
        self.warp_size = warp_size
        mask = np.asarray(initial_mask, dtype=bool).copy()
        if mask.shape != (warp_size,):
            raise ValueError("initial mask must have one entry per lane")
        self._entries: List[List[object]] = [[-1, start_pc, mask]]

    # -- inspection ----------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self._entries)

    @property
    def pc(self) -> int:
        return self._entries[-1][1]  # type: ignore[return-value]

    @property
    def active_mask(self) -> np.ndarray:
        return self._entries[-1][2]  # type: ignore[return-value]

    @property
    def done(self) -> bool:
        """True when every lane has exited."""
        return not self._entries

    # -- transitions ----------------------------------------------------
    def advance(self) -> None:
        """Move past a non-branch instruction."""
        self._entries[-1][1] = self.pc + 1  # type: ignore[operator]
        self._maybe_reconverge()

    def jump(self, target_pc: int) -> None:
        self._entries[-1][1] = target_pc
        self._maybe_reconverge()

    def branch(self, taken: np.ndarray, target_pc: int, reconv_pc: int) -> None:
        """Apply a conditional branch with per-lane taken mask.

        ``taken`` must already be restricted to the active mask.
        """
        top = self._entries[-1]
        active: np.ndarray = top[2]  # type: ignore[assignment]
        taken = np.logical_and(taken, active)
        not_taken = np.logical_and(~taken, active)
        fallthrough_pc = self.pc + 1

        if not taken.any():
            top[1] = fallthrough_pc
        elif not not_taken.any():
            top[1] = target_pc
        else:
            # Divergence: top becomes the reconvergence entry; push the
            # not-taken side below the taken side (taken executes first,
            # a fixed deterministic order).
            top[1] = reconv_pc
            self._entries.append([reconv_pc, fallthrough_pc, not_taken])
            self._entries.append([reconv_pc, target_pc, taken])
        self._maybe_reconverge()

    def exit_lanes(self, mask: Optional[np.ndarray] = None) -> None:
        """Retire lanes (they executed ``exit``) from every stack entry."""
        if mask is None:
            mask = self.active_mask
        keep = ~np.asarray(mask, dtype=bool)
        for entry in self._entries:
            entry[2] = np.logical_and(entry[2], keep)  # type: ignore[index]
        self._entries = [e for e in self._entries if e[2].any()]  # type: ignore[union-attr]
        self._maybe_reconverge()

    def _maybe_reconverge(self) -> None:
        while self._entries:
            reconv, pc, _mask = self._entries[-1]
            if reconv != -1 and pc == reconv:
                merged = self._entries.pop()
                if not self._entries:
                    # Reconverged past the last entry: resurrect as base.
                    self._entries.append([-1, merged[1], merged[2]])
                    return
            else:
                return

    def snapshot(self) -> Tuple[Tuple[int, int, bytes], ...]:
        """Hashable view, used by tests for invariant checking."""
        return tuple(
            (int(e[0]), int(e[1]), e[2].tobytes()) for e in self._entries  # type: ignore[index]
        )
