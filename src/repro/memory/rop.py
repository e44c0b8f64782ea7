"""ROP (raster operation) unit: the GPU's atomic execution stage.

Atomics on NVIDIA GPUs are performed by ROP units at the memory
partitions (paper Section IV-D: "they are sent to the ROP to perform the
actual atomic operation").  One ROP serializes its atomics: each op
occupies the unit for ``op_latency`` cycles.  The *order of application*
is the order of ``execute()`` calls — the baseline GPU calls it in
(jittered) arrival order, DAB calls it in its deterministic flush order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.globalmem import AtomicOp, GlobalMemory


@dataclass
class ROPStats:
    ops: int = 0
    busy_until: int = 0


class ROPUnit:
    def __init__(self, mem: GlobalMemory, op_latency: int):
        if op_latency < 1:
            raise ValueError("ROP latency must be >= 1")
        self.mem = mem
        self.op_latency = op_latency
        self.stats = ROPStats()
        self._free = 0

    def execute(self, now: int, op: AtomicOp):
        """Apply ``op``; returns ``(old_value, completion_cycle)``."""
        start = max(now, self._free)
        done = start + self.op_latency
        self._free = done
        old = self.mem.apply_atomic(op)
        self.stats.ops += 1
        self.stats.busy_until = done
        return old, done
