"""``GlobalMemory.load_many`` as it gathered lane by lane, frozen as the
reference.

The simulator gathers a warp whose lanes all lie in one buffer with one
numpy index (:meth:`repro.memory.globalmem.GlobalMemory.load_many`).
This is the gather it replaced: runs of lanes in one buffer, each lane
located, tested for word alignment and turned into an index in Python,
with its own copy of the address lookup.  ``test_prop_load_many.py``
holds the two equal.  Kept as it was; do not edit it to make that
property pass.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

WORD_BYTES = 4


def _locate(mem, addr: int):
    if addr % WORD_BYTES:
        raise ValueError(f"unaligned word address {addr:#x}")
    i = bisect_right(mem._bases, addr) - 1
    if i < 0:
        raise ValueError(f"address {addr:#x} below heap")
    buf = mem._buffers[i]
    if addr >= buf.end:
        raise ValueError(f"address {addr:#x} out of bounds (after {buf.name!r})")
    return buf, (addr - buf.base) // WORD_BYTES


def load_many(mem, addrs) -> np.ndarray:
    """Gather; returns float64 array of raw values (caller casts)."""
    addr_list = addrs.tolist() if isinstance(addrs, np.ndarray) else \
        [int(a) for a in addrs]
    n = len(addr_list)
    out = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        buf, _ = _locate(mem, addr_list[i])
        base, end = buf.base, buf.end
        j = i + 1
        while j < n and base <= addr_list[j] < end:
            j += 1
        idxs = []
        for a in addr_list[i:j]:
            if a % WORD_BYTES:
                raise ValueError(f"unaligned word address {a:#x}")
            idxs.append((a - base) // WORD_BYTES)
        out[i:j] = buf.data[idxs]
        i = j
    return out
