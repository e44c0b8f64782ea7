"""GPUDet controller: quanta, store buffers, commit and serial modes.

Execution model (paper Section III-C):

* **Parallel mode** — warps run normally up to ``quantum_instrs``
  instructions.  Global stores append to the warp's store buffer; the
  warp's own loads see its buffered stores (others don't).  A warp ends
  its quantum early when it reaches an atomic (which may not execute in
  parallel mode), a barrier, or exit.
* **Commit mode** — once every live warp has ended its quantum and all
  in-flight memory settles, all store buffers are made globally visible
  in deterministic warp-uid order, with timing from the Z-buffer model.
* **Serial mode** — warps that stopped at an atomic execute that one
  atomic instruction one warp at a time in warp-uid order, each paying
  a full round trip; this is the serialization that makes GPUDet slow
  on atomic-intensive workloads (Fig 3).

Barriers and fences release at the start of the next parallel mode (the
commit made the pre-barrier stores visible).  Mode cycle totals feed the
Fig 3 execution-mode breakdown.

A quantum boundary walks only the live-warp registry (placed, not yet
exited warps), never the whole GPU, so its cost follows the warps it
concerns rather than the SM count (DESIGN §12).  The issue consult and
the quantum boundary read a warp's timing cells in its scheduler's
rows, not through the warp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.arch.warp import Warp
from repro.memory.globalmem import GlobalMemory
from repro.memory.store_buffer import StoreBuffer
from repro.gpudet.zbuffer import zbuffer_commit_cycles

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.schedulers import SchedRow
    from repro.sim.gpu import GPU


@dataclass(frozen=True)
class GPUDetConfig:
    quantum_instrs: int = 200
    zbuffer_startup: int = 64
    commit_per_entry: int = 1
    #: cycles between consecutive serially-issued warps (issue overhead;
    #: their memory latencies overlap because serial mode only serializes
    #: *issue* order: "issuing warps serially in a set order", III-C)
    serial_issue_gap: int = 8
    #: one drain round trip at the end of serial mode
    serial_round_trip: int = 2 * 20 + 120  # icnt both ways + L2 access

    def __post_init__(self) -> None:
        if self.quantum_instrs < 1:
            raise ValueError("quantum must be >= 1 instruction")


class StoreBufferView:
    """Memory view a warp uses in parallel mode: own stores are visible."""

    def __init__(self, mem: GlobalMemory, sb: StoreBuffer):
        self._mem = mem
        self._sb = sb

    def load_many(self, addrs) -> np.ndarray:
        if self._sb.empty:
            return self._mem.load_many(addrs)
        addr_list = addrs.tolist() if isinstance(addrs, np.ndarray) else \
            [int(a) for a in addrs]
        out = np.empty(len(addr_list), dtype=np.float64)
        # Lanes the warp's own buffer misses go to memory in one gather;
        # a buffered address never reaches GlobalMemory.
        miss_lanes = []
        miss_addrs = []
        sb_load = self._sb.load
        for k, a in enumerate(addr_list):
            v = sb_load(a)
            if v is None:
                miss_lanes.append(k)
                miss_addrs.append(a)
            else:
                out[k] = v
        if miss_addrs:
            out[miss_lanes] = self._mem.load_many(
                np.array(miss_addrs, dtype=np.int64))
        return out

    def store_many(self, addrs, values) -> None:
        for a, v in zip(addrs, values):
            self._sb.store(int(a), v)


PARALLEL, COMMIT, SERIAL = "parallel", "commit", "serial"


class _WarpState:
    """One warp's GPUDet state, created when its CTA is placed.

    ``bar``, ``ol`` and ``oa`` are the warp's scheduler's
    ``at_barrier``, ``out_loads`` and ``out_atoms`` rows and ``col``
    its slot: a warp stays bound to them while it is live.
    """

    __slots__ = ("warp", "sb", "view", "used", "reason",
                 "bar", "ol", "oa", "col")

    def __init__(self, warp: Warp, mem: GlobalMemory, bar: List[bool],
                 ol: List[int], oa: List[int], col: int):
        self.warp = warp
        self.sb = StoreBuffer()
        self.view = StoreBufferView(mem, self.sb)
        #: instructions issued in the current quantum
        self.used = 0
        #: why the quantum ended ("atomic", "barrier", "budget"), or None
        self.reason: Optional[str] = None
        self.bar, self.ol, self.oa, self.col = bar, ol, oa, col


class GPUDetController:
    def __init__(self, gpu: "GPU", config: GPUDetConfig):
        self.gpu = gpu
        self.config = config
        self.mode = PARALLEL
        self.mode_cycles: Dict[str, int] = {PARALLEL: 0, COMMIT: 0, SERIAL: 0}
        self._mode_started = 0
        #: live-warp registry: uid -> state of every placed, not yet
        #: exited warp.  on_cta_placed adds, after_step removes on exit.
        self._live: Dict[int, _WarpState] = {}
        #: uid -> state of the live warps plus exited warps whose stores
        #: await the next commit (which drops them).
        self._states: Dict[int, _WarpState] = {}
        self._quanta = 0

    # ------------------------------------------------------------------
    def on_cta_placed(self, warps: List[Warp]) -> None:
        """Register ``warps``, already bound to their schedulers' rows."""
        mem = self.gpu.mem
        sms = self.gpu.sms
        for w in warps:
            row = sms[w.sm_id].rows[w.scheduler_id]
            st = _WarpState(w, mem, row.bar, row.ol, row.oa, w.hw_slot)
            self._live[w.uid] = st
            self._states[w.uid] = st

    def mem_view(self, warp: Warp) -> StoreBufferView:
        return self._live[warp.uid].view

    # ------------------------------------------------------------------
    # Issue gating & accounting.
    # ------------------------------------------------------------------
    def holds(self, row: "SchedRow", slot: int) -> bool:
        """GPUDet already holds the live warp at ``row`` slot ``slot``:
        no parallel mode, waiting at a barrier, or its quantum over.

        The one definition of a hold: the side-effect-free half of
        :meth:`can_issue` (without its quantum end at an atomic), shared
        with the armed ``wake`` check.  Each hold ends through a cell
        write: the ready bump at the next parallel mode's start, or a
        barrier release.
        """
        # At a bar.sync/membar: an atomic right after it must not end
        # the quantum, or the next serial mode would run it before the
        # barrier releases.
        return (self.mode != PARALLEL or row.bar[slot]
                or self._live[row.warps[slot].uid].reason is not None)

    def can_issue(self, row: "SchedRow", slot: int) -> bool:
        """Whether the timing-ready live warp at ``row`` slot ``slot``
        may issue: not held (:meth:`holds`, inlined here, as this runs
        per ready warp per examination) and not at an atomic, which
        ends its quantum."""
        if self.mode != PARALLEL or row.bar[slot]:
            return False
        st = self._live[row.warps[slot].uid]
        if st.reason is not None:
            return False
        if row.atomic[row.pc[slot]]:
            # Atomics may not execute in parallel mode: end the quantum.
            st.reason = "atomic"
            self.gpu._gpudet_dirty = True  # tick() reads the reasons
            return False
        return True

    def after_step(self, now: int, warp: Warp, result) -> None:
        self.gpu._gpudet_dirty = True  # any step can end the quantum
        if result.exited:
            # Leaves the registry; its state stays only while its stores
            # await the next commit.
            st = self._live.pop(warp.uid)
            if st.sb.empty:
                del self._states[warp.uid]
            return
        st = self._live[warp.uid]
        st.used += 1
        if result.barrier or result.fence:
            st.reason = "barrier"
        elif st.used >= self.config.quantum_instrs:
            st.reason = "budget"

    # ------------------------------------------------------------------
    # Quantum state machine.
    # ------------------------------------------------------------------
    def tick(self, now: int) -> bool:
        if self.mode != PARALLEL:
            return False
        barrier_blocked = False
        for st in self._live.values():
            c = st.col
            if st.bar[c]:
                # Its quantum ended with 'barrier', but its in-flight
                # memory still blocks the commit.
                if st.ol[c] or st.oa[c]:
                    barrier_blocked = True
                continue
            if st.reason is None:
                return False
            if st.ol[c] or st.oa[c]:
                return False
        if not self._live:
            # Kernel drain: final commit of any leftover stores.
            if not self._buffers_empty():
                self._enter_commit(now)
                return True
            return False
        if barrier_blocked:
            return False
        self._enter_commit(now)
        return True

    def _enter_commit(self, now: int) -> None:
        self.mode_cycles[PARALLEL] += now - self._mode_started
        self.mode = COMMIT
        self._mode_started = now
        self._quanta += 1

        # Deterministic commit: warp-uid order; Z-buffer resolves
        # same-address conflicts by the same order (later uid wins).
        mem = self.gpu.mem
        partition_of = self.gpu.addr_map.partition_of
        per_part = [0] * len(self.gpu.partitions)
        for uid in sorted(self._states):
            for addr, value in self._states[uid].sb.drain():
                mem.store(addr, value)
                per_part[partition_of(addr)] += 1
        # Exited warps' last stores are visible now: only live warps
        # keep state.
        self._states = dict(self._live)
        cycles = zbuffer_commit_cycles(
            per_part,
            startup=self.config.zbuffer_startup,
            per_entry=self.config.commit_per_entry,
        )
        self.gpu.schedule(now + max(1, cycles), self._commit_done, None)

    def _commit_done(self, now: int, _args) -> None:
        self.mode_cycles[COMMIT] += now - self._mode_started
        self.mode = SERIAL
        self._mode_started = now
        self.gpu._gpudet_dirty = True
        # A serial step moves only the pc of a warp that stopped at an
        # atomic, which GPUDet holds until the ready bump of the next
        # parallel mode; that bump wakes its scheduler.
        t = now

        # Serial mode: warps stopped at an atomic run it one warp at a
        # time, in warp-uid order.
        pending = [st for _uid, st in sorted(self._live.items())
                   if st.reason == "atomic"]
        last_done = now
        for st in pending:
            w = st.warp
            if not w.next_is_atomic():
                continue  # guarded off since
            sm = self.gpu.sms[w.sm_id]
            result = w.step(self.gpu.mem)
            sm.instructions += 1
            sm.atomics += 1
            st.used += 1
            spec = result.mem
            t += self.config.serial_issue_gap
            if spec is not None:
                # Warps *issue* serially; per-partition ROPs serialize
                # the actual operations (rop._free), and the memory
                # latencies of consecutive warps overlap.
                for op in spec.red_ops:
                    p = self.gpu.addr_map.partition_of(op.addr)
                    _old, done = self.gpu.partitions[p].service_atomic(t, op)
                    last_done = max(last_done, done)
                for lane, op in spec.atom_ops:
                    p = self.gpu.addr_map.partition_of(op.addr)
                    old, done = self.gpu.partitions[p].service_atomic(t, op)
                    last_done = max(last_done, done)
                    if spec.atom_dst is not None:
                        w.write_atom_result(spec.atom_dst, lane, old)
        if pending:
            last_done += self.config.serial_round_trip
        self.gpu.schedule(max(t, last_done, now + 1), self._serial_done, None)

    def _serial_done(self, now: int, _args) -> None:
        self.mode_cycles[SERIAL] += now - self._mode_started
        self.mode = PARALLEL
        self._mode_started = now
        self.gpu._gpudet_dirty = True  # new quantum may end immediately
        # New quantum: reset budgets and reasons; release arrived barriers
        # and fences (their stores are now committed and visible).  Only
        # SMs with live warps can hold a wait.
        for st in self._live.values():
            st.used = 0
            st.reason = None
        sms = self.gpu.sms
        for sm_id in sorted({st.warp.sm_id for st in self._live.values()}):
            sms[sm_id].release_waits(now)
        for st in self._live.values():
            w = st.warp
            w.ready_cycle = max(w.ready_cycle, now)

    # ------------------------------------------------------------------
    def _buffers_empty(self) -> bool:
        return all(st.sb.empty for st in self._states.values())

    def drained(self) -> bool:
        return self.mode == PARALLEL and self._buffers_empty()

    def finalize(self, now: int) -> None:
        self.mode_cycles[self.mode] += now - self._mode_started
        self._mode_started = now
