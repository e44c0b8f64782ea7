"""A memory sub-partition: L2 slice + ROP + DRAM channel + flush reorder.

The GPU event loop calls into this object when packets arrive from the
interconnect.  It owns all per-partition timing state.  Two service
paths exist for atomics:

* ``service_atomic`` — the baseline (non-deterministic) path: atomics
  are applied at the ROP in arrival order.
* ``begin_flush_round`` / ``receive_flush_entry`` — DAB's deterministic
  path: entries pass through the :class:`FlushReorderBuffer` and reach
  the ROP in round-robin-across-SM order (paper Fig 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import GPUConfig
from repro.memory.cache import SectorCache
from repro.memory.dram import DRAMModel
from repro.memory.flush_buffer import FlushReorderBuffer
from repro.memory.globalmem import AtomicOp, GlobalMemory
from repro.memory.rop import ROPUnit


@dataclass
class PartitionStats:
    reads: int = 0
    writes: int = 0
    atomics: int = 0
    flush_entries: int = 0
    #: flush transactions that arrived out of deterministic order and
    #: had to wait in the reorder buffer (accumulated across rounds).
    reorder_buffered: int = 0
    #: peak reorder-buffer occupancy over the whole run (Fig 8 sizing).
    reorder_max_depth: int = 0


class MemoryPartition:
    def __init__(
        self,
        partition_id: int,
        config: GPUConfig,
        mem: GlobalMemory,
        dram_jitter=None,
        model_virtual_write_queue: bool = False,
        obs=None,
        faults=None,
        inv=None,
    ):
        self.partition_id = partition_id
        self.config = config
        self.obs = obs
        #: fault injector (transient service stalls); None = no faults.
        self.faults = faults
        #: runtime invariant checker; None = checking off (zero cost).
        self.inv = inv
        self.l2 = SectorCache(config.l2_cache_per_partition)
        self.rop = ROPUnit(mem, config.rop_latency)
        self.dram = DRAMModel(
            config.dram_latency,
            config.dram_queue_capacity,
            config.dram_bandwidth_per_cycle,
            jitter=dram_jitter,
        )
        self.flush_reorder = FlushReorderBuffer()
        self.stats = PartitionStats()
        #: If True, every out-of-order buffered flush entry evicts one L2
        #: line, mimicking the virtual-write-queue feasibility study
        #: (paper Section V: "<1% extra L2 miss rate").
        self.model_virtual_write_queue = model_virtual_write_queue

    # -- ordinary requests ------------------------------------------------
    def _stalled(self, now: int) -> int:
        """Apply any injected transient partition stall to ``now``."""
        if self.faults is None:
            return now
        extra = self.faults.partition_stall(self.partition_id, now)
        if extra and self.obs is not None:
            self.obs.emit_at(now, "fault", "partition_stall",
                             partition=self.partition_id, cycles=extra)
        return now + extra

    def service_request(self, now: int, addr: int, is_write: bool) -> Tuple[int, bool]:
        """Service one sector request; return (completion_cycle, l2_hit)."""
        now = self._stalled(now)
        hit = self.l2.access(addr, write=is_write)
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        l2_done = now + self.config.l2_cache_per_partition.hit_latency
        if hit:
            return l2_done, True
        done = self.dram.accept(l2_done)
        return done, False

    def retire_dram(self) -> None:
        self.dram.retire()

    # -- baseline atomics ---------------------------------------------------
    def service_atomic(self, now: int, op: AtomicOp) -> Tuple[float, int]:
        """Apply an atomic in arrival order (non-deterministic baseline).

        Returns (old_value, completion_cycle).  Atomics execute at the L2
        (sector brought in if absent) and occupy the ROP serially.
        """
        now = self._stalled(now)
        self.l2.access(op.addr, write=True)
        self.stats.atomics += 1
        start = now + self.config.l2_cache_per_partition.hit_latency
        return self.rop.execute(start, op)

    # -- DAB deterministic flush path ----------------------------------------
    def begin_flush_round(self, expected_counts: Dict[int, int]) -> None:
        if self.inv is not None:
            self.inv.begin_flush_round(self.partition_id, expected_counts)
        self.flush_reorder = FlushReorderBuffer(
            inv=self.inv, partition_id=self.partition_id
        )
        self.flush_reorder.begin_round(expected_counts)

    def receive_flush_entry(
        self, now: int, sm_id: int, ops: List[AtomicOp]
    ) -> Tuple[List[Tuple[float, int]], int]:
        """Accept one flush *transaction* arriving from the interconnect.

        A transaction is one or more atomic ops (several when coalesced).
        Returns ``(applied, buffered_count)`` where ``applied`` is a list
        of (old_value, completion_cycle) for every op the reorder buffer
        released to the ROP as a consequence of this arrival.
        """
        before = self.flush_reorder.occupancy
        ready = self.flush_reorder.receive(sm_id, ops)
        after = self.flush_reorder.occupancy
        if after > before:
            self.stats.reorder_buffered += 1
            if after > self.stats.reorder_max_depth:
                self.stats.reorder_max_depth = after
            if self.model_virtual_write_queue:
                self.l2.evict_one()
            if self.obs is not None:
                self.obs.emit_at(now, "partition", "reorder_stall",
                                 partition=self.partition_id, sm=sm_id,
                                 depth=after)
        applied = []
        for txn in ready:
            applied.extend(self.apply_flush_ops(now, txn))
        return applied, after

    def apply_flush_ops(self, now: int, ops: List[AtomicOp]) -> List[Tuple[float, int]]:
        """Apply a transaction's ops at the ROP (deterministic path tail)."""
        now = self._stalled(now)
        applied = []
        for op in ops:
            self.l2.access(op.addr, write=True)
            self.stats.flush_entries += 1
            start = now + self.config.l2_cache_per_partition.hit_latency
            applied.append(self.rop.execute(start, op))
        if self.obs is not None and ops:
            self.obs.emit_at(now, "flush", "rop_apply",
                             partition=self.partition_id, ops=len(ops))
        return applied

    @property
    def flush_round_complete(self) -> bool:
        return self.flush_reorder.complete
