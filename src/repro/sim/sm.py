"""Streaming Multiprocessor: warp slots, schedulers, L1, DAB buffers.

Each SM owns ``num_schedulers_per_sm`` warp schedulers; global warp slot
``g`` maps to scheduler ``g % S``, local slot ``g // S``, so a CTA's
warps spread round-robin across schedulers (paper Section VI: "2 warps
of a CTA are mapped to a scheduler").

Deterministic CTA placement (Section IV-C5): a CTA's per-SM sequence
number fixes both its hardware-slot range and its *batch*; placement
waits for exactly those slots, so warp->scheduler assignment never
depends on which slot happened to free first.

DAB state owned here: the atomic buffers (per warp slot or per
scheduler), the external atomic-issue gates (flush in progress / CTA
batch / buffer capacity), and the per-scheduler stall accounting that
feeds the Fig 15 overhead breakdown.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.arch.isa import OpClass
from repro.arch.kernel import CTA, Kernel
from repro.arch.warp import Warp
from repro.core.atomic_buffer import AtomicBuffer, FlushTransaction
from repro.core.dab import BufferLevel, DABConfig
from repro.core.schedulers import (
    GATE_STALLS,
    STALL_GATE_BATCH,
    STALL_GATE_BUFFER,
    STALL_GATE_FLUSH,
    SchedRow,
    make_scheduler,
)
from repro.memory.cache import SectorCache
from repro.sim.results import StallBreakdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.gpu import GPU


class SM:
    def __init__(self, sm_id: int, cluster_id: int, gpu: "GPU"):
        self.sm_id = sm_id
        self.cluster_id = cluster_id
        self.gpu = gpu
        cfg = gpu.config
        self.config = cfg
        self.num_schedulers = cfg.num_schedulers_per_sm
        self.slots_per_scheduler = cfg.warps_per_scheduler
        self.total_slots = cfg.max_warps_per_sm

        # This SM's block of the GPU-wide warp timing rows
        # (repro.sim.soa): row row0 + s belongs to scheduler s.
        soa = gpu.soa
        self.soa = soa
        self.row0 = sm_id * self.num_schedulers

        self.obs = getattr(gpu, "obs", None)
        self.inv = getattr(gpu, "inv", None)
        sched_name = gpu.dab.scheduler if gpu.dab is not None else cfg.baseline_scheduler
        self.schedulers = [
            make_scheduler(sched_name, self.slots_per_scheduler)
            for _ in range(self.num_schedulers)
        ]
        for i, sched in enumerate(self.schedulers):
            sched.obs = self.obs
            sched.obs_sm = sm_id
            sched.obs_id = i
        #: GPUDet runs GTO: a scheduler whose every timing-ready warp
        #: GPUDet holds may sleep (see _held_sleeps).
        self._gto_held = (gpu.gpudet is not None
                          and self.schedulers[0].name == "gto")
        #: scan the live slots for a timing-ready warp before the
        #: consults and select(): DAB's consult trips sticky full bits
        #: on warps that are not ready, and every policy but GTO changes
        #: state in select().  Elsewhere GTO's select() is the readiness
        #: test (see issue_cycle_fast).
        self._precheck = (gpu.dab is not None
                          or self.schedulers[0].name != "gto")
        #: per-scheduler local slot tables.
        self.sched_slots: List[List[Optional[Warp]]] = [
            [None] * self.slots_per_scheduler for _ in range(self.num_schedulers)
        ]
        #: what each scheduler's select() reads: its slot table, live
        #: slots (kept by try_place_cta and _handle_exit) and rows.
        self.rows: List[SchedRow] = []
        for s, table in enumerate(self.sched_slots):
            r = self.row0 + s
            self.rows.append(SchedRow(
                table, soa.active[r], soa.at_barrier[r], soa.ready_cycle[r],
                soa.out_loads[r], soa.out_atoms[r], soa.pc[r],
            ))
        self.l1 = SectorCache(cfg.l1_cache)
        self.stalls = StallBreakdown()

        # DAB buffers.
        self.dab: Optional[DABConfig] = gpu.dab
        self.buffers: List[AtomicBuffer] = []
        self._warp_level = False
        if self.dab is not None:
            self._warp_level = self.dab.buffer_level is BufferLevel.WARP
            count = self.total_slots if self._warp_level else self.num_schedulers
            kind = "warp" if self._warp_level else "sched"
            self.buffers = [
                AtomicBuffer(
                    self.dab.buffer_entries, fusion=self.dab.fusion,
                    obs=self.obs, name=f"sm.{sm_id}.{kind}.{i}", sm_id=sm_id,
                    inv=self.inv,
                )
                for i in range(count)
            ]
            for buf in self.buffers:
                buf.bind_counters(soa)

        # Kernel/batch bookkeeping.
        self.kernel: Optional[Kernel] = None
        self.expected_ctas = 0
        self.ctas_placed = 0
        self.cta_records: List[CTA] = []
        self.current_batch = 0
        self._ctas_per_wave = 1
        self._warps_per_cta = 1
        #: the waits release_waits ends: CTAs with a warp at a bar.sync
        #: (in first-arrival order) and warps at a membar.
        self._barrier_ctas: List[CTA] = []
        self._fence_warps: List[Warp] = []

        self.instructions = 0
        self.atomics = 0
        #: number of placed, not-yet-exited warps; the GPU run loop
        #: skips the SM's issue phase while this is 0 (idle-SM skip).
        self.live_count = 0

        # Per-scheduler issue state.  A scheduler is *examined* during an
        # issue phase only when its dirty bit is set — by a write to one
        # of its warps' timing cells, which goes through a bound-Warp
        # setter (DESIGN §12), or by a due wake-heap entry; in between,
        # it sits in a frozen stall window whose per-epoch records are
        # booked in bulk at the next examination.
        ns = self.num_schedulers
        #: open stall window: frozen reason (None = idle, books nothing)
        #: and the first epoch the window covers.
        self._acct_reason: List[Optional[str]] = [None] * ns
        self._acct_epoch = [0] * ns

    # ------------------------------------------------------------------
    # Kernel / CTA management.
    # ------------------------------------------------------------------
    def begin_kernel(self, kernel: Kernel, expected_ctas: int,
                     atomic: Sequence[bool]) -> None:
        """Start ``kernel``; ``atomic[pc]`` says whether its instruction
        at ``pc`` is a red/atom (built once per launch)."""
        self.kernel = kernel
        self.expected_ctas = expected_ctas
        self.ctas_placed = 0
        self.cta_records = []
        self.current_batch = 0
        self._warps_per_cta = kernel.warps_per_cta(self.config.warp_size)
        if self._warps_per_cta > self.total_slots:
            raise ValueError(
                f"CTA needs {self._warps_per_cta} warps but SM has "
                f"{self.total_slots} slots"
            )
        self._ctas_per_wave = max(1, self.total_slots // self._warps_per_cta)
        # Read only at live warps' PCs, so stale done-warp PCs from a
        # previous kernel are never looked up.
        for row, sched in zip(self.rows, self.schedulers):
            row.atomic = atomic
            sched.reset_for_drain()

    def _slot_range(self, per_sm_index: int) -> range:
        pos = per_sm_index % self._ctas_per_wave
        base = pos * self._warps_per_cta
        return range(base, base + self._warps_per_cta)

    def _slot_warp(self, g: int) -> Optional[Warp]:
        return self.sched_slots[g % self.num_schedulers][g // self.num_schedulers]

    def _slot_free(self, g: int) -> bool:
        w = self._slot_warp(g)
        if w is None:
            return True
        if not w.done:
            return False
        if self._warp_level:
            # Warps are reclaimed only once their buffer flushed (IV-B).
            buf = self.buffers[g]
            if buf.non_empty:
                return False
        return True

    def can_place_cta(self, cta: CTA) -> bool:
        if self.kernel is None:
            return False
        return all(self._slot_free(g) for g in self._slot_range(self.ctas_placed))

    def try_place_cta(self, now: int, cta: CTA, per_sm_index: int) -> bool:
        if self.kernel is None or cta.kernel is not self.kernel:
            raise RuntimeError("CTA placed outside its kernel window")
        slots = self._slot_range(per_sm_index)
        if not all(self._slot_free(g) for g in slots):
            return False
        cta.batch = per_sm_index // self._ctas_per_wave
        cta.warps_total = self._warps_per_cta
        placed = cta.warps = []
        for w, g in enumerate(slots):
            sched = g % self.num_schedulers
            local = g // self.num_schedulers
            old = self.sched_slots[sched][local]
            if old is not None:
                # The retired warp may still receive late store acks:
                # copy its cells out before the slot is rebound to the
                # new occupant.
                old.unbind_slab()
            warp = Warp(
                uid=self.gpu.next_warp_uid(),
                cta=cta,
                warp_id_in_cta=w,
                warp_size=self.config.warp_size,
                sm_id=self.sm_id,
                scheduler_id=sched,
                hw_slot=local,
            )
            warp.launched_cycle = now
            warp.ready_cycle = now
            if self.obs is not None and self.obs.wants("access"):
                warp.capture_addrs = True
            warp.bind_slab(self.soa, self.row0 + sched, local)
            self.sched_slots[sched][local] = warp
            row = self.rows[sched]
            row.add(local)
            self.schedulers[sched].notify_warp_added(row, local)
            self.live_count += 1
            placed.append(warp)
        self.ctas_placed += 1
        self.cta_records.append(cta)
        if self.gpu.gpudet is not None:
            self.gpu.gpudet.on_cta_placed(placed)
        return True

    def all_warps(self) -> List[Warp]:
        out = []
        for table in self.sched_slots:
            for w in table:
                if w is not None:
                    out.append(w)
        return out

    # ------------------------------------------------------------------
    # DAB buffer plumbing.
    # ------------------------------------------------------------------
    def buffer_for(self, warp: Warp) -> AtomicBuffer:
        if self._warp_level:
            g = warp.hw_slot * self.num_schedulers + warp.scheduler_id
            return self.buffers[g]
        return self.buffers[warp.scheduler_id]

    def _buffer_feeders(self, idx: int) -> List[Warp]:
        if self._warp_level:
            sched = idx % self.num_schedulers
            local = idx // self.num_schedulers
            w = self.sched_slots[sched][local]
            return [w] if w is not None else []
        return [w for w in self.sched_slots[idx] if w is not None]

    # The first two queries walk the buffers; the run loop reads the
    # O(1) counters on repro.sim.soa instead, so only the per-cluster
    # flush trigger and test doubles without counters use them.
    def any_buffer_nonempty(self) -> bool:
        return any(b.non_empty for b in self.buffers)

    def any_buffer_full(self) -> bool:
        return any(b.full for b in self.buffers)

    def _unready_feeders(self, idx: int) -> List[Warp]:
        """Buffer ``idx``'s live feeders not at a barrier; [] when the
        buffer is at a deterministic point (see core.flush)."""
        if self.buffers[idx].full:
            return []
        return [w for w in self._buffer_feeders(idx)
                if not w.done and not w.at_barrier]

    def buffers_flush_ready(self) -> bool:
        """Every buffer is at a deterministic point (see core.flush)."""
        return not any(map(self._unready_feeders, range(len(self.buffers))))

    def unready_buffers(self) -> List[Tuple[AtomicBuffer, List[Warp]]]:
        """Each buffer not at a deterministic point, with its live
        feeders not at a barrier."""
        out = []
        for idx, buf in enumerate(self.buffers):
            feeders = self._unready_feeders(idx)
            if feeders:
                out.append((buf, feeders))
        return out

    def drain_dab_buffers(self, coalesce: bool, offset: int) -> List[FlushTransaction]:
        buffers = self.buffers
        if not any(buf.non_empty for buf in buffers):
            # Nothing to send, and no warp here holds a buffered red: a
            # red leaves its buffer non-empty until this SM's next
            # flush.  (An empty buffer is never full: a buffer holds at
            # least a warp's worth of entries.)  Each buffer still
            # counts the flush.
            for buf in buffers:
                buf.stats.flushes += 1
            return []
        stream: List[FlushTransaction] = []
        for buf in buffers:
            stream.extend(buf.drain(coalesce=coalesce))
        for w in self.all_warps():
            w.buffered_reds = 0
        if offset and stream:
            # Offset flushing (paper VI-B2): rotate this SM's whole send
            # stream by ~offset entries so different SMs hit different
            # memory partitions first.  Rotation granularity is a whole
            # transaction; the commit order stays a deterministic
            # function of SM id and buffer contents.
            entries = 0
            for idx, txn in enumerate(stream):
                if entries >= offset:
                    stream = stream[idx:] + stream[:idx]
                    break
                entries += len(txn.ops)
        return stream

    # ------------------------------------------------------------------
    # Issue.
    # ------------------------------------------------------------------
    def settle_stall_windows(self, epoch_end: int) -> None:
        """Book every open stall window through ``epoch_end - 1``.

        Called at the end of GPU.run.  Normally a no-op: a warp only
        becomes done by issuing EXIT through its scheduler, which forces
        an examination that settles the window, so by kernel drain every
        window is idle.  Kept as a defensive backstop so an unsettled
        window can never silently drop stall records.
        """
        for s in range(self.num_schedulers):
            reason = self._acct_reason[s]
            if reason is not None:
                owed = epoch_end - self._acct_epoch[s]
                if owed > 0:
                    self.stalls.record_bulk(reason, owed)
                self._acct_reason[s] = None
                self.soa.sched_dirty[self.row0 + s] = True

    def issue_cycle_fast(self, now: int, epoch: int) -> int:
        """One issue phase (epoch ``epoch``) over the dirty schedulers.

        Every scheduler with live warps books one stall record per
        epoch: ``issued``, or why it could not issue.  A dirty scheduler
        with no timing-ready warp opens a frozen stall window (``mem``
        or ``barrier``) and goes clean; the window is booked in bulk at
        its next examination.  One with a timing-ready warp runs the
        consults (GPUDet's quantum check or DAB's atomic gates) over its
        live slots, then ``select()``.  Without DAB, GTO's ``select``
        is that readiness test: it answers no warp, with nothing held,
        iff no live warp is timing-ready, and its reason is then the
        window's.  It stays dirty only while its answer can change
        without a cell write on its row; otherwise it sleeps in a window
        from the next epoch (DESIGN §12 "Sleeping schedulers"):

        * after an issue that leaves one live warp on its row, not
          timing-ready (``mem`` or ``barrier``, the window the next
          examination would open);
        * on a gate stall (``buffer_full``, ``flush``, ``batch``) when
          the policy's in-order warp, or every timing-ready warp, waits
          at a gate closed with that reason, until a flush start or end
          or a batch advance on this SM;
        * under GPUDet and GTO, when GPUDet holds every timing-ready
          warp.

        A cell write on its row or a due wake-heap entry wakes any
        sleeper.  The visit leaves this SM on the agenda only while one
        of its rows is dirty or a baseline wait is pending.
        """
        soa = self.soa
        gpudet = self.gpu.gpudet
        dab = self.dab
        precheck = self._precheck
        if (dab is None and gpudet is None
                and (self._barrier_ctas or self._fence_warps)):
            # Baseline: every change that can end a wait (a response,
            # store ack, exit or arrival) put this SM on the agenda.
            self.release_waits(now, drained=True)
        issued = 0
        left_dirty = False
        base = self.row0
        dirty = soa.sched_dirty
        # The dirty flags are read LIVE: an earlier scheduler of this
        # pass can dirty a later one (e.g. an immediate barrier
        # release), which must be examined within the same cycle.
        for s, sched in enumerate(self.schedulers):
            r0 = base + s
            if not dirty[r0]:
                continue  # frozen stall/idle window; booked later
            # Close the open window: one stall per skipped epoch under
            # the frozen reason.
            reason = self._acct_reason[s]
            if reason is not None:
                owed = epoch - self._acct_epoch[s]
                if owed > 0:
                    self.stalls.record_bulk(reason, owed)
                if reason in GATE_STALLS:
                    soa.gate_sleepers.discard(r0)
                self._acct_reason[s] = None
            dirty[r0] = False

            row = self.rows[s]
            live = row.live
            if not live:
                continue  # idle scheduler: not counted as a stall slot
            if precheck:
                # Precheck over the live slots: the rows are the warps'
                # own storage, so an earlier scheduler's issue side
                # effects are always observed.
                bar, rc, ol, oa = row.bar, row.rc, row.ol, row.oa
                any_ready = False
                all_barrier = True
                for i in live:
                    if bar[i]:
                        continue
                    all_barrier = False
                    if ol[i] == 0 and oa[i] == 0 and rc[i] <= now:
                        any_ready = True
                        break
                if not any_ready:
                    # Frozen until a cell write or a due warp_wake entry
                    # dirties the row again.
                    self._acct_reason[s] = "barrier" if all_barrier else "mem"
                    self._acct_epoch[s] = epoch
                    continue

            # Consult and select.  GPUDet's consult runs only on
            # timing-ready warps, reads their row cells, and holds those
            # at a barrier without side effects, so it needs no precheck.
            if gpudet is not None:
                held = row.held
                if held:
                    held.clear()
                rc, ol, oa = row.rc, row.ol, row.oa
                can_issue = gpudet.can_issue
                for i in live:
                    if (ol[i] == 0 and oa[i] == 0 and rc[i] <= now
                            and not can_issue(row, i)):
                        held.add(i)
            elif dab is not None:
                gated = row.gated
                if gated:
                    gated.clear()
                pc, atomic, bar, warps = row.pc, row.atomic, row.bar, row.warps
                for i in live:
                    if atomic[pc[i]] and not bar[i]:
                        gate = self._atomic_gate(warps[i])
                        if gate:
                            gated[i] = gate
            warp, reason = sched.select(now, row)
            if warp is None and not precheck and not row.held:
                # GTO found no timing-ready warp: the precheck's window.
                self._acct_reason[s] = reason
                self._acct_epoch[s] = epoch
                continue
            blocked = sched.gate_blocked_warp
            if blocked is not None:
                # The policy's deterministic atomic candidate was blocked
                # on buffer capacity: trip the sticky full bit now (the
                # flush trigger watches it).
                sched.gate_blocked_warp = None
                if self.dab is not None and not self._warp_level:
                    buf = self.buffer_for(blocked)
                    if not buf.full:
                        buf.mark_full()
                        self.gpu._flush_dirty = True
            self.stalls.record(None if warp is not None else reason)
            # Asleep from here on (DESIGN §12 "Sleeping schedulers"):
            # the next examinations would repeat this one's answer until
            # a wake-up, so the window opens from the next epoch.
            if warp is not None:
                self._issue(now, warp)
                issued += 1
                # The issue's own cell writes dirtied the row.
                sleep = self._issue_sleep(row, now)
                if sleep is not None:
                    dirty[r0] = False
                    if sleep:
                        self._acct_reason[s] = sleep
                        self._acct_epoch[s] = epoch + 1
                    continue
            elif reason in GATE_STALLS and (
                    self._inorder_sleeps(sched, row, now, reason)
                    or self._gate_sleeps(row, now, reason)):
                self._acct_reason[s] = reason
                self._acct_epoch[s] = epoch + 1
                soa.gate_sleepers.add(r0)
                continue
            elif gpudet is not None and self._held_sleeps(row, now):
                self._acct_reason[s] = reason
                self._acct_epoch[s] = epoch + 1
                continue
            # Stay dirty: select calls mutate policy state and the
            # consults have side effects (GPUDet quantum ends, sticky
            # full bits), so they must happen at every such epoch.
            dirty[r0] = True
            left_dirty = True
        vd = soa.visit_dirty
        sm_id = self.sm_id
        if left_dirty:
            # Keep this SM on the agenda for its dirty schedulers.
            vd.add(sm_id)
        elif (sm_id in vd and True not in dirty[base:base + len(self.rows)]
              and not (dab is None and gpudet is None
                       and (self._barrier_ctas or self._fence_warps))):
            # Nothing here to examine: a cell write, a due wake entry or
            # a gate event puts the SM back.  A baseline wait stays, as
            # its release runs at the next visit.
            vd.discard(sm_id)
        return issued

    def _issue_sleep(self, row: SchedRow, now: int) -> Optional[str]:
        """After an issue on ``row``, the window its next examination
        would open if one warp is live on the row (the issued one, or
        the one left after it exited) and not timing-ready: ``barrier``
        while it waits at one, else ``mem``; "" once none is live (no
        window).  None keeps the scheduler dirty.

        Exact: the warp's next ready time has a wake-heap entry (pushed
        by its ``ready_cycle`` write), and any other change reaches the
        row through a cell write.  With more warps on the row it stays
        dirty: telling whether one is timing-ready costs the scan the
        next examination makes anyway.
        """
        live = row.live
        if not live:
            return ""
        if len(live) > 1:
            return None
        i = live[0]
        if row.bar[i]:
            return "barrier"
        if row.ol[i] == 0 and row.oa[i] == 0 and row.rc[i] <= now:
            return None
        return "mem"

    def _gate_sleeps(self, row: SchedRow, now: int, reason: str) -> bool:
        """Every timing-ready warp of ``row`` not at a barrier is at an
        atomic whose gate is closed with ``reason``."""
        bar, rc, ol, oa = row.bar, row.rc, row.ol, row.oa
        pc, atomic, warps = row.pc, row.atomic, row.warps
        for i in row.live:
            if (not bar[i] and ol[i] == 0 and oa[i] == 0 and rc[i] <= now
                    and not (atomic[pc[i]]
                             and self.gate_reason(warps[i]) == reason)):
                return False
        return True

    def _inorder_sleeps(self, sched, row: SchedRow, now: int,
                        reason: str) -> bool:
        """The policy's in-order warp (SRR, GTRR in its SRR phase) is
        timing-ready at an atomic whose gate is closed with ``reason``:
        strict round robin cannot pass it, whatever else is ready."""
        i = sched.inorder_slot(row, row.gated)
        return (i is not None and row.ready(i, now)
                and row.gated.get(i) == reason)

    def _held_sleeps(self, row: SchedRow, now: int) -> bool:
        """GPUDet holds every timing-ready warp of ``row`` and the
        policy is GTO, whose ``select`` on such a row is idempotent;
        each hold ends through a cell write (a parallel-mode start's
        ready bump or a barrier release)."""
        if not self._gto_held:
            return False
        held, rc, ol, oa = row.held, row.rc, row.ol, row.oa
        for i in row.live:
            if ol[i] == 0 and oa[i] == 0 and rc[i] <= now and i not in held:
                return False
        return True

    def gate_reason(self, warp: Warp) -> str:
        """Why an external gate blocks ``warp``'s next atomic, or "".

        Free of side effects: the SM's consult (:meth:`_atomic_gate`)
        and the armed ``wake`` check share this one definition.
        """
        flush = self.gpu.flush
        if flush is not None and flush.flush_gate_blocked(self.cluster_id):
            return STALL_GATE_FLUSH
        if warp.batch > self.current_batch:
            return STALL_GATE_BATCH
        if not self.buffer_for(warp).can_accept(warp.peek_red_ops()):
            return STALL_GATE_BUFFER
        return ""

    def _atomic_gate(self, warp: Warp) -> str:
        """:meth:`gate_reason`, tripping a warp-level buffer's sticky
        full bit when the gate is capacity."""
        gate = self.gate_reason(warp)
        if gate == STALL_GATE_BUFFER and self._warp_level:
            # The sticky full bit may only be tripped by the warp that is
            # actually next in the deterministic atomic order; for
            # warp-level buffers that is trivially this warp (sole
            # feeder).  For scheduler-level buffers the *scheduler*
            # reports its blocked candidate (``gate_blocked_warp``) and
            # the SM marks the buffer after select() — a speculative
            # status check for a warp further down the order must not
            # freeze the buffer under an already-approved insert.
            buf = self.buffer_for(warp)
            if not buf.full:
                buf.mark_full()
                self.gpu._flush_dirty = True
        return gate

    def _issue(self, now: int, warp: Warp) -> None:
        cfg = self.config
        gpudet = self.gpu.gpudet
        if gpudet is None:
            result = warp.step(self.gpu.mem)
        else:
            # GPUDet: the warp sees its own buffered stores.
            result = warp.step(gpudet.mem_view(warp))
        self.instructions += 1
        oc = result.op_class

        if gpudet is not None:
            gpudet.after_step(now, warp, result)

        if self.obs is not None and self.obs.wants("access"):
            self._emit_access(warp, result)

        if oc is OpClass.ALU:
            warp.ready_cycle = now + cfg.alu_latency
        elif oc is OpClass.SFU:
            warp.ready_cycle = now + cfg.sfu_latency
        elif oc is OpClass.NOP:
            extra = 1
            if result.instr.op_class is OpClass.NOP and result.instr.srcs:
                # `nop N` models an N-cycle compute block; a guarded-off
                # instruction also surfaces as NOP and costs one cycle.
                extra = int(result.instr.srcs[0])
            warp.ready_cycle = now + max(1, extra)
        elif oc is OpClass.SLEEP:
            warp.ready_cycle = now + result.sleep_cycles
        elif oc is OpClass.BRANCH:
            warp.ready_cycle = now + 1
        elif oc is OpClass.EXIT:
            warp.ready_cycle = now + 1
            if result.exited:
                self._handle_exit(now, warp)
        elif oc is OpClass.BARRIER:
            self._handle_barrier(now, warp)
        elif oc is OpClass.FENCE:
            self._handle_fence(now, warp)
        else:
            self._handle_mem(now, warp, result)
            if result.mem is not None and result.mem.kind in ("red", "atom"):
                self.atomics += 1

    def _emit_access(self, warp: Warp, result) -> None:
        """Emit one ``access`` trace event for the race certifier.

        Memory instructions carry exact per-lane word addresses (the
        warp captures them when ``capture_addrs`` is set at placement);
        ``bar.sync`` arrivals are emitted so the checker can join CTA
        clocks per barrier generation.  Events appear in issue order,
        which for a jitter-free baseline run is a legal interleaving of
        the program's memory accesses (loads/stores take effect at
        issue in the functional model).
        """
        mem = result.mem
        if mem is not None:
            self.obs.emit(
                "access", mem.kind, cta=warp.cta.cta_id, warp=warp.uid,
                addrs=list(mem.addrs), gtids=list(mem.gtids),
            )
        elif result.op_class is OpClass.BARRIER:
            self.obs.emit("access", "bar", cta=warp.cta.cta_id, warp=warp.uid)

    # ------------------------------------------------------------------
    # Instruction-class handlers.
    # ------------------------------------------------------------------
    def _handle_exit(self, now: int, warp: Warp) -> None:
        warp.exited = True
        self.live_count -= 1
        # An exit can free a hardware slot (dispatch), flip a buffer to
        # flush-ready (all feeders retired), and complete a baseline
        # barrier (all remaining warps arrived).
        self.gpu._dispatch_dirty = True
        self.gpu._flush_dirty = True
        cta = warp.cta
        cta.warps_exited += 1
        cta.warps.remove(warp)
        row = self.rows[warp.scheduler_id]
        row.remove(warp.hw_slot)
        self.schedulers[warp.scheduler_id].notify_exit(row, warp.hw_slot)
        self._advance_batch()
        if cta.done:
            self.gpu.on_cta_done(now, cta)
        else:
            self._maybe_complete_barrier(now, cta)

    def _advance_batch(self) -> None:
        while True:
            lo = self.current_batch * self._ctas_per_wave
            hi = min(lo + self._ctas_per_wave, self.expected_ctas or self.ctas_placed)
            batch_ctas = self.cta_records[lo:hi]
            if not batch_ctas:
                break
            if self.expected_ctas and len(batch_ctas) < hi - lo:
                break  # batch not fully placed yet
            if all(c.done for c in batch_ctas):
                self.current_batch += 1
                # The batch gate may have opened.
                self.soa.wake_gate_sleepers(self.sm_id)
            else:
                break

    def _handle_barrier(self, now: int, warp: Warp) -> None:
        warp.at_barrier = True
        warp.ready_cycle = now + 1
        # Barrier entry can flip a buffer to flush-ready.
        self.gpu._flush_dirty = True
        cta = warp.cta
        if cta not in self._barrier_ctas:
            self._barrier_ctas.append(cta)
        self._maybe_complete_barrier(now, cta)
        if warp.at_barrier:
            # The warp genuinely blocks (CTA not fully arrived, or a
            # fence flush is pending): a token-holding warp must forfeit
            # the token or atomics of its CTA-mates would deadlock.  A
            # barrier that released immediately must NOT forfeit — the
            # forfeit would depend on which warp happened to arrive
            # last, which is timing, and would scramble the
            # deterministic atomic order (caught by the conv seed-sweep
            # tests).
            self.schedulers[warp.scheduler_id].notify_barrier(
                self.rows[warp.scheduler_id], warp.hw_slot)

    def _maybe_complete_barrier(self, now: int, cta: CTA) -> None:
        if cta not in self._barrier_ctas:
            return
        warps = cta.warps
        # A warp waiting at a membar also has its at_barrier cell set,
        # but has not reached the bar.sync.
        fenced = self._fence_warps
        if not all(w.at_barrier and w not in fenced for w in warps):
            return
        cta.barrier_complete_at = now
        if self.gpu.flush is not None:
            # DAB: bar.sync carries a CTA-level fence -> needs a flush,
            # but only if this CTA's warps actually buffered atomics
            # since the last flush; otherwise there is nothing to make
            # visible and the barrier releases like a plain barrier.
            # (The buffered-red count is a program-order quantity, so
            # the release decision is deterministic.)
            if all(w.buffered_reds == 0 for w in warps):
                self._barrier_ctas.remove(cta)
                self._release(now, cta, warps)
            else:
                self.gpu.flush.request_fence_flush(now)

    def _handle_fence(self, now: int, warp: Warp) -> None:
        warp.at_barrier = True
        warp.fence_arrived_at = now
        warp.ready_cycle = now + 1
        self.gpu._flush_dirty = True
        self._fence_warps.append(warp)
        self.schedulers[warp.scheduler_id].notify_barrier(
            self.rows[warp.scheduler_id], warp.hw_slot)
        if self.gpu.flush is not None:
            self.gpu.flush.request_fence_flush(now)

    def release_waits(self, now: int, since: Optional[int] = None,
                      drained: bool = False) -> None:
        """End every barrier and fence wait whose condition holds.

        A CTA's ``bar.sync`` can end once all its live warps arrived,
        a ``membar`` once its warp arrived.  ``since`` keeps only the
        waits complete by that cycle (DAB: the start of the flush that
        just completed drained their atomics); ``drained`` also needs
        the waiting warps' loads, stores and atomics settled (baseline).
        GPUDet passes neither at the start of each parallel mode.
        """
        waiting = []
        for cta in self._barrier_ctas:
            at = cta.barrier_complete_at
            if (at is None or (since is not None and at > since)
                    or (drained and not all(map(_settled, cta.warps)))):
                waiting.append(cta)
            else:
                self._release(now, cta, cta.warps)
        self._barrier_ctas = waiting
        fenced = []
        for w in self._fence_warps:
            if ((since is not None and w.fence_arrived_at > since)
                    or (drained and not _settled(w))):
                fenced.append(w)
            else:
                self._release(now, None, [w])
        self._fence_warps = fenced

    def _release(self, now: int, cta: Optional[CTA],
                 warps: List[Warp]) -> None:
        """Release ``warps``: all of ``cta`` at its bar.sync, or one
        warp at a membar (``cta`` None)."""
        if cta is not None:
            cta.barrier_complete_at = None
        for w in warps:
            w.at_barrier = False
            w.ready_cycle = max(w.ready_cycle, now + 1)
            self.schedulers[w.scheduler_id].notify_barrier_release(
                self.rows[w.scheduler_id], w.hw_slot)

    # ------------------------------------------------------------------
    def _handle_mem(self, now: int, warp: Warp, result) -> None:
        spec = result.mem
        assert spec is not None
        if spec.kind == "load":
            self._issue_load(now, warp, spec.sectors)
        elif spec.kind == "store":
            self._issue_store(now, warp, spec.sectors)
        elif spec.kind == "red":
            if self.dab is not None:
                if self.inv is not None:
                    self.inv.check_batch_order(
                        self.sm_id, warp.batch, self.current_batch
                    )
                buf = self.buffer_for(warp)
                buf.insert(spec.red_ops)
                # A non-empty buffer can make an already-requested
                # drain/fence flush eligible to start.
                self.gpu._flush_dirty = True
                warp.buffered_reds += len(spec.red_ops)
                # Buffered atomics behave like ALU ops at issue (VI-A1).
                warp.ready_cycle = now + self.config.alu_latency
            else:
                warp.ready_cycle = now + 1
                self.gpu.issue_baseline_red(now, self, warp, spec)
        else:  # atom
            warp.ready_cycle = now + 1
            self.gpu.issue_atom(now, self, warp, spec)

    def _issue_load(self, now: int, warp: Warp, sectors) -> None:
        cfg = self.config
        warp.ready_cycle = now + cfg.l1_cache.hit_latency
        misses = []
        for sec in sectors:
            if not self.l1.access(sec):
                misses.append(sec)
        if misses:
            warp.outstanding_loads += len(misses)
            for sec in misses:
                self.gpu.send_load_miss(now, self, warp, sec)

    def _issue_store(self, now: int, warp: Warp, sectors) -> None:
        # Write-through, no-allocate: invalidate any L1 copy, go to L2.
        warp.ready_cycle = now + 1
        if self.gpu.gpudet is not None:
            return  # GPUDet: stores went to the warp's store buffer
        for sec in sectors:
            if self.l1.probe(sec):
                self.l1.invalidate(sec)
            warp.outstanding_stores += 1
            self.gpu.send_store(now, self, warp, sec)


def _settled(w: Warp) -> bool:
    """No load, store or atomic of ``w`` is in flight."""
    return (w.outstanding_loads == 0 and w.outstanding_stores == 0
            and w.outstanding_atoms == 0)
