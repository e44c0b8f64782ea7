"""Injected timing non-determinism.

A Python simulator is deterministic by construction, but real GPUs are
not: DRAM refresh, interconnect arbitration and clock-domain crossings
perturb latencies from run to run, which reorders atomics and (with
non-associative f32 adds) changes results bit-for-bit.  The paper's own
validation "extended the baseline GPGPU-Sim and DAB to model
non-determinism in GPUs" (Section V); this module is our version of
that extension.

A :class:`JitterSource` adds small random increments to DRAM service
latencies and interconnect traversal latencies.  Different seeds model
different runs of the same program on the same hardware:

* on the **baseline** GPU, different seeds generally produce different
  bitwise results for order-sensitive reductions;
* under **DAB** or **GPUDet**, results must be bitwise identical for
  every seed — the determinism property, enforced by tests.

Draws
-----

Each draw is the value ``np.random.default_rng(seed).integers(0, max +
1, dtype=np.int64)`` would return as the next scalar of one stream
shared by :meth:`JitterSource.dram` and :meth:`JitterSource.icnt`, but
computed in Python from raw 64-bit PCG64 words taken in blocks
(``random_raw``), since a numpy call per draw costs several times the
arithmetic.  It is numpy's algorithm for a range below 2^32, which
``MAX_JITTER`` guarantees: each word gives its low 32-bit half, then
its high half, and a half ``u`` becomes ``(u * n) >> 32`` for ``n =
max + 1`` (Lemire's multiply-shift), redrawn while the low 32 bits of
the product fall below numpy's threshold ``(2^32 - n) % n``.  A zero
bound returns 0 without drawing.  ``tests/property/test_prop_jitter.py``
pins every value to numpy's scalar stream.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: Magnitude cap: a per-access jitter larger than this is a config bug.
#: It also keeps every draw's range below 2^32 (see the module notes).
MAX_JITTER = 1_000_000

#: raw 64-bit words taken from the bit generator per refill.
_BLOCK_WORDS = 256
_LOW32 = 0xFFFFFFFF


def _bound(max_value: int) -> Tuple[int, int]:
    """``n = max_value + 1`` and numpy's rejection threshold for it."""
    n = max_value + 1
    return n, (2**32 - n) % n


class JitterSource:
    """Seeded latency perturbation."""

    def __init__(self, seed: int, dram_max: int = 16, icnt_max: int = 6):
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise ValueError(f"jitter seed must be an integer, got {seed!r}")
        if seed < 0:
            raise ValueError(f"jitter seed must be non-negative, got {seed}")
        for name, v in (("dram_max", dram_max), ("icnt_max", icnt_max)):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(
                    f"jitter magnitude {name} must be an integer, got {v!r}"
                )
            if v < 0:
                raise ValueError(
                    f"jitter magnitude {name} must be non-negative, got {v}"
                )
            if v > MAX_JITTER:
                raise ValueError(
                    f"jitter magnitude {name}={v} exceeds the cap of "
                    f"{MAX_JITTER} cycles"
                )
        self.seed = int(seed)
        self.dram_max = int(dram_max)
        self.icnt_max = int(icnt_max)
        self._bits = np.random.default_rng(self.seed).bit_generator
        #: the buffered 32-bit halves (low, high, low, ...) and the
        #: index of the next one to use.
        self._halves: List[int] = []
        self._pos = 0
        self._dram = _bound(self.dram_max)
        self._icnt = _bound(self.icnt_max)

    def _refill(self) -> List[int]:
        raw = self._bits.random_raw(_BLOCK_WORDS)
        halves = np.empty(2 * _BLOCK_WORDS, dtype=np.uint64)
        halves[0::2] = raw & _LOW32
        halves[1::2] = raw >> 32
        self._halves = halves.tolist()
        self._pos = 0
        return self._halves

    def _draw(self, bound: Tuple[int, int]) -> int:
        n, threshold = bound
        halves = self._halves
        pos = self._pos
        while True:
            if pos == len(halves):
                halves = self._refill()
                pos = 0
            m = halves[pos] * n
            pos += 1
            if m & _LOW32 >= threshold:
                self._pos = pos
                return m >> 32

    def dram(self) -> int:
        if self.dram_max == 0:
            return 0
        return self._draw(self._dram)

    def icnt(self) -> int:
        if self.icnt_max == 0:
            return 0
        return self._draw(self._icnt)

    def __repr__(self) -> str:
        return (
            f"JitterSource(seed={self.seed}, dram_max={self.dram_max}, "
            f"icnt_max={self.icnt_max})"
        )
