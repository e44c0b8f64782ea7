"""Host speed probe: a fixed workload that owes nothing to the simulator.

The reference host's speed moves by 10-60% from one second to the next
and drifts over minutes (other tenants contend for its cores and caches),
so raw wall times of one 15 s loop do not repeat.  A fixed probe timed
right before and right after a run slows down with it, so scaling the
run's time by the probe's cancels most of that.  The probe mixes the two
kinds of work the simulator does: interpreted object, dict and heap
traffic, and small numpy array operations.  It imports nothing from
``repro``, so a change to the simulator cannot move it.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Optional

import numpy as np

#: Fastest probe time, in seconds, on the reference host (README.md,
#: "Reference numbers").  Scaled times are in this host's seconds.
REFERENCE_PROBE_S = 0.0280


class _Obj:
    __slots__ = ("a", "b", "items")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = 2 * a
        self.items = [a]


def _interpreted() -> int:
    objs = [_Obj(i) for i in range(2000)]
    counts: dict = {}
    heap: list = []
    total = 0
    for i in range(20000):
        o = objs[i % 2000]
        total += o.a + o.b
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
        heapq.heappush(heap, (i * 7919) % 10007)
        if len(heap) > 64:
            heapq.heappop(heap)
        o.items.append(i)
        if len(o.items) > 8:
            o.items.clear()
    return total


def _numpy() -> int:
    row = np.arange(32, dtype=np.int64)
    total = 0
    for i in range(4000):
        b = row + i
        total += int(b[b > 40].sum()) + len(b.tolist())
    return total


def probe_seconds() -> float:
    """One timed probe, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _interpreted()
        _numpy()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Converts timed spans to reference-host seconds.

    Call :meth:`start` before the first span, then :meth:`mark` right
    after each: it probes again and divides the span's time by the
    slowdown the probes before and after it saw.  That probe also serves
    as the next span's "before".
    """

    def __init__(self) -> None:
        self._before = 0.0
        self._t0 = 0.0
        self.host_s = 0.0
        self.reference_s = 0.0

    def start(self) -> None:
        self._before = probe_seconds()
        self._t0 = time.perf_counter()

    def mark(self, seconds: Optional[float] = None) -> float:
        """Close a span: ``seconds`` if given, else the wall time since
        the last probe.  Returns it in reference-host seconds."""
        if seconds is None:
            seconds = time.perf_counter() - self._t0
        after = probe_seconds()
        slowdown = (self._before + after) / 2 / REFERENCE_PROBE_S
        self._before = after
        self.host_s += seconds
        self.reference_s += seconds / slowdown
        self._t0 = time.perf_counter()
        return seconds / slowdown

    @property
    def slowdown(self) -> float:
        """Host seconds per reference-host second over the scaled runs
        (above 1: this host was slower than the reference host)."""
        return self.host_s / self.reference_s
