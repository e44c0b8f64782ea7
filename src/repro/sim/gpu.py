"""Top-level GPU simulator: the event-accelerated cycle loop.

The machine is built from the substrate pieces (SMs, crossbar networks,
memory partitions) and optionally one of the two deterministic
architectures:

* ``dab=DABConfig(...)``   — Deterministic Atomic Buffering (the paper);
* ``gpudet=GPUDetConfig(...)`` — the GPUDet strong-determinism baseline.

Timing advances with a cycle counter plus an event heap; when no warp
can issue, the loop fast-forwards to the next event or warp-ready time,
so long memory latencies cost O(1) host time.  Functional state lives in
one shared :class:`~repro.memory.globalmem.GlobalMemory`, so multiple
kernels launched in sequence (e.g. BC's per-level kernels) see each
other's results exactly as on a real GPU.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Dict, List, Optional

from repro.arch.isa import OpClass
from repro.arch.kernel import CTA, Kernel
from repro.arch.warp import MemRequestSpec, Warp
from repro.config import GPUConfig
from repro.core.dab import DABConfig
from repro.core.flush import FlushController
from repro.faults import FaultInjector, FaultPlan, InvariantChecker, InvariantConfig
from repro.interconnect.network import Network
from repro.memory.address import AddressMap
from repro.memory.globalmem import CommitRecorder, GlobalMemory
from repro.memory.partition import MemoryPartition
from repro.obs import Observability, ObsConfig
from repro.sim.cluster import Cluster
from repro.sim.dispatcher import CTADispatcher
from repro.sim.nondet import JitterSource
from repro.sim.results import SimResult, StallBreakdown
from repro.sim.sm import SM

SECTOR_BYTES = 32
REQUEST_BYTES = 8
RESPONSE_BYTES = 32


class SimulationError(RuntimeError):
    """Deadlock, unsupported construct, or exceeded cycle limit."""


class GPU:
    def __init__(
        self,
        config: GPUConfig,
        mem: GlobalMemory,
        dab: Optional[DABConfig] = None,
        gpudet=None,
        jitter: Optional[JitterSource] = None,
        model_virtual_write_queue: bool = False,
        obs: Optional[ObsConfig] = None,
        max_cycles: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        invariants=False,
    ):
        if dab is not None and gpudet is not None:
            raise ValueError("choose at most one of dab / gpudet")
        if dab is not None and dab.buffer_entries < config.warp_size:
            # Paper IV-B: a buffer needs "at least 32 entries to support
            # all 32 threads in the warp performing an atomic"; smaller
            # buffers could never accept a full warp request.
            raise ValueError(
                f"DAB buffers need >= warp_size ({config.warp_size}) entries, "
                f"got {dab.buffer_entries}"
            )
        self.config = config
        self.mem = mem
        self.dab = dab
        self.jitter = jitter
        #: observability hub; None when disabled so every emission site
        #: in the simulator reduces to one attribute test (zero-cost).
        self.obs: Optional[Observability] = (
            Observability(obs) if obs is not None and obs.enabled else None
        )
        if self.obs is not None and self.obs.wants("commit"):
            # Cycle-stamp every atomic commit (conformance tooling); the
            # recorder is shared with any caller-attached one.
            if mem.commit_log is None:
                mem.commit_log = CommitRecorder()
            mem.commit_log.obs = self.obs
        #: fault injector; None when no plan is armed, so every injection
        #: seam reduces to one attribute test (same contract as ``obs``).
        self.faults: Optional[FaultInjector] = (
            faults.injector() if faults is not None else None
        )
        #: runtime invariant checker; same ``None``-when-off contract.
        self.inv: Optional[InvariantChecker] = None
        if invariants:
            inv_cfg = (invariants if isinstance(invariants, InvariantConfig)
                       else InvariantConfig())
            self.inv = InvariantChecker(
                inv_cfg,
                fault_source=(self.faults.describe_last
                              if self.faults is not None else None),
                obs=self.obs,
            )
        self.addr_map = AddressMap(
            line_bytes=config.l2_cache_per_partition.line_bytes,
            sector_bytes=config.l2_cache_per_partition.sector_bytes,
            num_partitions=config.num_mem_partitions,
        )

        dram_jitter = jitter.dram if jitter is not None else None
        icnt_jitter = jitter.icnt if jitter is not None else None
        fi = self.faults
        if fi is not None:
            # Compose fault amplification onto the base jitter.  The
            # per-partition DRAM closure routes each channel to its own
            # burst substream.
            def _dram_for(p, base=dram_jitter):
                def _jit():
                    return (base() if base is not None else 0) + fi.dram_extra(p)
                return _jit

            def _icnt(base=icnt_jitter):
                return (base() if base is not None else 0) + fi.icnt_extra()

            dram_jitters = [_dram_for(p)
                            for p in range(config.num_mem_partitions)]
            icnt_jitter = _icnt
        else:
            dram_jitters = [dram_jitter] * config.num_mem_partitions
        self.partitions = [
            MemoryPartition(
                p, config, mem, dram_jitter=dram_jitters[p],
                model_virtual_write_queue=model_virtual_write_queue,
                obs=self.obs, faults=fi, inv=self.inv,
            )
            for p in range(config.num_mem_partitions)
        ]
        self.net_fwd = Network(
            config.num_clusters, config.num_mem_partitions,
            latency=config.icnt_latency, flit_bytes=config.icnt_flit_bytes,
            dst_bandwidth=config.icnt_bandwidth_per_cycle,
            input_buffer_flits=config.icnt_input_buffer_size,
            jitter=icnt_jitter,
        )
        self.net_rev = Network(
            config.num_mem_partitions, config.num_clusters,
            latency=config.icnt_latency, flit_bytes=config.icnt_flit_bytes,
            dst_bandwidth=config.icnt_bandwidth_per_cycle,
            input_buffer_flits=config.icnt_input_buffer_size,
            jitter=icnt_jitter,
        )

        # GPUDet controller (constructed before SMs: they consult it).
        self.gpudet = None
        if gpudet is not None:
            from repro.gpudet.gpudet import GPUDetController

            self.gpudet = GPUDetController(self, gpudet)

        # GPU-wide warp timing rows (constructed before SMs: each SM
        # owns a block of rows; see repro.sim.soa).
        from repro.sim.soa import WarpSlabs

        self.soa = WarpSlabs(
            config.num_sms,
            config.num_schedulers_per_sm,
            config.warps_per_scheduler,
        )

        self.sms: List[SM] = []
        self.clusters: List[Cluster] = []
        for cid in range(config.num_clusters):
            members = []
            for i in range(config.sms_per_cluster):
                sm = SM(cid * config.sms_per_cluster + i, cid, self)
                members.append(sm)
                self.sms.append(sm)
            self.clusters.append(Cluster(cid, members))

        self.flush: Optional[FlushController] = None
        if dab is not None:
            self.flush = FlushController(self, dab)

        self.dispatcher = CTADispatcher(
            self.sms, dab is not None or self.gpudet is not None, obs=self.obs)

        #: cycle budget for :meth:`run` (a ``run(max_cycles=...)``
        #: argument overrides it for that call only).
        self.max_cycles = 200_000_000 if max_cycles is None else max_cycles

        # Event heap.
        self._heap: list = []
        self._seq = 0
        self.cycle = 0

        # Kernel sequencing / completion tracking.
        self._queue: List[Kernel] = []
        self._current: Optional[Kernel] = None
        self._ctas_done = 0
        self._warp_uid = 0
        self.kernels_run = 0

        # Outstanding-work counters (kernel completion conditions).
        self.pending_atomic_packets = 0
        self.pending_store_acks = 0
        self.last_atomic_done = 0

        #: issue-phase executions (run-loop iterations).  The unit of
        #: stall accounting: one stall record per stalled scheduler per
        #: epoch, booked in bulk when a scheduler's stall window closes.
        self.epochs = 0
        #: accumulated wall-clock seconds spent inside run() across all
        #: kernels — the engine-only cost (excludes workload build and
        #: result digesting).  Telemetry only (``host_profile``), never
        #: a determinism surface.
        self.sim_wall_s = 0.0
        # Dirty flags gating the polled subsystems in the run loop.
        # Every mutation that could change the subsystem's answer must
        # set the flag (over-approximating is safe: a gated call on
        # unchanged state is a no-op).
        self._dispatch_dirty = True
        self._flush_dirty = True
        self._gpudet_dirty = True

    # ------------------------------------------------------------------
    # Plumbing used by SMs and controllers.
    # ------------------------------------------------------------------
    def next_warp_uid(self) -> int:
        self._warp_uid += 1
        return self._warp_uid

    def schedule(self, when: int, fn: Callable, args=None) -> None:
        if when < self.cycle:
            when = self.cycle
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, fn, args))

    # -- loads -------------------------------------------------------------
    def send_load_miss(self, now: int, sm: SM, warp: Warp, sector: int) -> None:
        p = self.addr_map.partition_of(sector)
        arr = self.net_fwd.send(now, sm.cluster_id, p, REQUEST_BYTES)
        self.schedule(arr, self._load_at_partition, (p, sm, warp, sector))

    def _load_at_partition(self, now: int, args) -> None:
        p, sm, warp, sector = args
        done, hit = self.partitions[p].service_request(now, sector, is_write=False)
        if not hit:
            self.schedule(done, self._retire_dram, p)
        rsp = self.net_rev.send(done, p, sm.cluster_id, RESPONSE_BYTES)
        self.schedule(rsp, self._load_response, warp)

    def _retire_dram(self, now: int, p: int) -> None:
        self.partitions[p].retire_dram()

    def _load_response(self, now: int, warp: Warp) -> None:
        warp.outstanding_loads -= 1
        if warp.outstanding_loads == 0:
            warp.ready_cycle = max(warp.ready_cycle, now + 1)
        self._gpudet_dirty = True

    # -- stores ---------------------------------------------------------------
    def send_store(self, now: int, sm: SM, warp: Warp, sector: int) -> None:
        p = self.addr_map.partition_of(sector)
        self.pending_store_acks += 1
        arr = self.net_fwd.send(now, sm.cluster_id, p, RESPONSE_BYTES)
        self.schedule(arr, self._store_at_partition, (p, warp, sector))

    def _store_at_partition(self, now: int, args) -> None:
        p, warp, sector = args
        done, hit = self.partitions[p].service_request(now, sector, is_write=True)
        if not hit:
            self.schedule(done, self._retire_dram, p)
        self.schedule(done, self._store_ack, warp)

    def _store_ack(self, now: int, warp: Warp) -> None:
        warp.outstanding_stores -= 1
        self.pending_store_acks -= 1
        # Baseline barriers and fences wait on outstanding stores, which
        # is a plain field, not a row cell: put the SM on the agenda.
        self.soa.visit_dirty.add(warp.sm_id)

    # -- baseline (non-deterministic) atomics ----------------------------------
    def issue_baseline_red(self, now: int, sm: SM, warp: Warp, spec: MemRequestSpec) -> None:
        """Fire-and-forget reduction: applied at the ROP in arrival order.

        The baseline GPU coalesces atomics into one transaction per
        sector (paper IV-F), so lanes hitting the same sector share a
        packet; application order within a packet is lane order, across
        packets it is (jitter-dependent) arrival order.
        """
        groups: Dict[int, list] = {}
        for op in spec.red_ops:
            groups.setdefault(self.addr_map.sector_of(op.addr), []).append(op)
        for sector in sorted(groups):
            ops = groups[sector]
            p = self.addr_map.partition_of(sector)
            self.pending_atomic_packets += 1
            arr = self.net_fwd.send(
                now, sm.cluster_id, p, REQUEST_BYTES + 9 * len(ops)
            )
            if self.faults is not None:
                arr = self.faults.deliver_at(sm.sm_id, p, arr)
            self.schedule(arr, self._red_at_partition, (p, ops))

    def _red_at_partition(self, now: int, args) -> None:
        p, ops = args
        for op in ops:
            _old, done = self.partitions[p].service_atomic(now, op)
            self.last_atomic_done = max(self.last_atomic_done, done)
        self.pending_atomic_packets -= 1

    # -- returning atomics (locks; baseline/GPUDet-serial only) ----------------
    def issue_atom(self, now: int, sm: SM, warp: Warp, spec: MemRequestSpec) -> None:
        groups: Dict[int, list] = {}
        for lane, op in spec.atom_ops:
            groups.setdefault(self.addr_map.sector_of(op.addr), []).append((lane, op))
        warp.outstanding_atoms += len(groups)
        for sector in sorted(groups):
            items = groups[sector]
            p = self.addr_map.partition_of(sector)
            arr = self.net_fwd.send(
                now, sm.cluster_id, p, REQUEST_BYTES + 9 * len(items)
            )
            if self.faults is not None:
                arr = self.faults.deliver_at(sm.sm_id, p, arr)
            self.schedule(
                arr, self._atom_at_partition, (p, sm, warp, spec.atom_dst, items)
            )

    def _atom_at_partition(self, now: int, args) -> None:
        p, sm, warp, dst, items = args
        last = now
        results = []
        for lane, op in items:
            old, done = self.partitions[p].service_atomic(now, op)
            results.append((lane, old))
            last = max(last, done)
        rsp = self.net_rev.send(last, p, sm.cluster_id, RESPONSE_BYTES)
        self.schedule(rsp, self._atom_response, (warp, dst, results))

    def _atom_response(self, now: int, args) -> None:
        warp, dst, results = args
        for lane, old in results:
            if dst is not None:
                warp.write_atom_result(dst, lane, old)
        warp.outstanding_atoms -= 1
        if warp.outstanding_atoms == 0:
            warp.ready_cycle = max(warp.ready_cycle, now + 1)
        self._gpudet_dirty = True

    # -- notifications ------------------------------------------------------------
    def on_cta_done(self, now: int, cta: CTA) -> None:
        self._ctas_done += 1

    # ------------------------------------------------------------------
    # Kernel sequencing.
    # ------------------------------------------------------------------
    def launch(self, kernel: Kernel) -> None:
        self._queue.append(kernel)

    def _start_next_kernel(self) -> None:
        self._current = self._queue.pop(0)
        if self.dab is not None and any(
                ins.op_class is OpClass.MEM_ATOM
                for ins in self._current.program.instrs):
            raise SimulationError(
                "returning atomics (atom.*) are not supported under DAB; "
                "the paper's DAB workloads compile to red instructions "
                "(Section IV-A)"
            )
        self._ctas_done = 0
        self._dispatch_dirty = True
        self._flush_dirty = True
        self._gpudet_dirty = True
        # No scheduler needs dirtying here: no SM has live warps between
        # kernels, and binding a placed warp dirties its scheduler.
        self.dispatcher.begin_kernel(self._current)
        if self.obs is not None:
            self.obs.emit_at(self.cycle, "kernel", "begin",
                             kernel=self._current.name,
                             grid=self._current.grid_dim)

    def _kernel_complete(self) -> bool:
        """The current kernel, all of whose CTAs are done (the run loop
        tests that first), has drained."""
        if not self.dispatcher.all_dispatched:
            return False
        if self.pending_atomic_packets or self.pending_store_acks:
            return False
        if self.cycle < self.last_atomic_done:
            return False
        if self.flush is not None:
            if self.flush.any_active:
                return False
            if self.soa.buf_nonempty_count:
                self.flush.request_drain_flush(self.cycle)
                return False
        if self.gpudet is not None and not self.gpudet.drained():
            return False
        return True

    def _finish_kernel(self) -> None:
        if self.obs is not None and self._current is not None:
            self.obs.emit_at(self.cycle, "kernel", "end",
                             kernel=self._current.name)
        self.dispatcher.finish_kernel()
        for sm in self.sms:
            for sched in sm.schedulers:
                sched.reset_for_drain()
        self.kernels_run += 1
        self._current = None

    def checkpoint(self) -> str:
        """Deterministic context-switch point (paper Section IV-G).

        The paper notes DNN training frameworks time-share GPUs "using
        check-pointing between GPU kernel launches"; DAB supports this
        naturally because every kernel drain flushes the atomic buffers.
        Callable whenever the GPU is idle (between :meth:`run` calls);
        returns the bitwise memory digest — identical across runs for
        deterministic architectures, so a preempted-and-resumed training
        job stays reproducible.
        """
        if self._current is not None or self._queue:
            raise SimulationError("checkpoint requires an idle GPU")
        if self.soa.buf_nonempty_count:
            raise SimulationError("atomic buffers not drained at checkpoint")
        if self.gpudet is not None and not self.gpudet.drained():
            raise SimulationError("store buffers not drained at checkpoint")
        return self.mem.snapshot_digest()

    def release(self) -> None:
        """Drop every reference this GPU holds; it is unusable after.

        SMs, clusters and controllers point back at their GPU, so a
        finished GPU's component graph is cyclic garbage that only a
        full collection frees, and a process running many simulations
        (a sweep worker, the engine benchmark) holds several dead GPUs
        at its peak.  Cutting the GPU's side of every cycle lets
        reference counting free the graph at once.
        """
        self.__dict__.clear()

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------
    def run(self, max_cycles: Optional[int] = None) -> SimResult:
        t0 = time.perf_counter()
        try:
            return self._run_loop(max_cycles)
        finally:
            self.sim_wall_s += time.perf_counter() - t0

    def _run_loop(self, max_cycles: Optional[int] = None) -> SimResult:
        """The event-driven cycle loop (DESIGN §12).

        Each iteration drains the due events, places CTAs, runs one
        issue phase (an *epoch*), ticks GPUDet and the flush trigger,
        then either steps one cycle (something issued) or fast-forwards
        to the next event or warp wake-up.  The issue phase visits only
        SMs on the agenda and examines only dirty schedulers, and the
        polled subsystems (dispatcher, flush controller, GPUDet tick)
        run only when a dirty flag says their answer may have changed.
        Calendar invariant: warp timing cells are written only through
        bound-``Warp`` setters, which dirty the warp's scheduler and
        push its wake time; ``pop_due`` dirties the schedulers whose
        wake time has come.  An armed :class:`InvariantChecker` rescans
        the warps at every issue phase and fast-forward to confirm it
        (the ``wake`` invariant).
        """
        limit = self.max_cycles if max_cycles is None else max_cycles
        obs = self.obs
        prof = obs.profiler if obs is not None else None
        run_t0 = prof.start() if prof is not None else 0.0
        sms = self.sms
        soa = self.soa
        while True:
            if self.cycle > limit:
                starved = self.flush.starved() if self.flush is not None else ""
                raise SimulationError(f"exceeded {limit} cycles"
                                      + (f": {starved}" if starved else ""))
            progressed = False
            if obs is not None:
                obs.cycle = self.cycle
            if self.inv is not None:
                self.inv.cycle = self.cycle

            if prof is not None:
                t0 = prof.start()
            while self._heap and self._heap[0][0] <= self.cycle:
                _t, _s, fn, args = heapq.heappop(self._heap)
                fn(self.cycle, args)
                progressed = True
            if prof is not None:
                prof.stop("event_heap", t0)

            if self._current is None:
                if not self._queue:
                    break
                self._start_next_kernel()
                progressed = True

            if prof is not None:
                t0 = prof.start()
            if self._dispatch_dirty:
                self._dispatch_dirty = False
                if self.dispatcher.place(self.cycle):
                    progressed = True
            if prof is not None:
                prof.stop("dispatch", t0)

            if prof is not None:
                t0 = prof.start()
            self.epochs += 1
            epoch = self.epochs
            cycle = self.cycle
            issued = 0
            ww = soa.warp_wake
            if ww and ww[0][0] <= cycle:
                soa.pop_due(cycle)
            if self.inv is not None:
                self.inv.check_issue_agenda(self, cycle)
            vd = soa.visit_dirty
            if vd:
                # Ascending SM order with lazy re-evaluation: an SM
                # dirtied mid-phase whose id is above the one being
                # visited is merged into the remaining batch (visited
                # this cycle); a lower id, or the visited SM itself,
                # stays on the agenda for the next cycle.
                batch = sorted(vd) if len(vd) > 1 else list(vd)
                vd.clear()
                i = 0
                while i < len(batch):
                    smid = batch[i]
                    i += 1
                    if sms[smid].live_count:
                        issued += sms[smid].issue_cycle_fast(cycle, epoch)
                        if vd and (len(vd) > 1 or smid not in vd):
                            extras = [x for x in vd if x > smid]
                            if extras:
                                vd.difference_update(extras)
                                batch[i:] = sorted(set(batch[i:]).union(extras))
            if issued:
                progressed = True
            if prof is not None:
                prof.stop("issue", t0)

            if prof is not None:
                t0 = prof.start()
            if self.gpudet is not None and self._gpudet_dirty:
                self._gpudet_dirty = False
                if self.gpudet.tick(self.cycle):
                    progressed = True
            if self.flush is not None and self._flush_dirty:
                self._flush_dirty = False
                if self.flush.maybe_trigger(self.cycle):
                    progressed = True
            if prof is not None:
                prof.stop("flush", t0)

            if (self._ctas_done >= self._current.grid_dim
                    and self._kernel_complete()):
                self._finish_kernel()
                continue

            if issued:
                self.cycle += 1
                continue

            # Nothing issued: fast-forward to the next interesting time.
            # The wake heap's peek validates entries against the rows, so
            # it returns the earliest future ready_cycle of an eligible
            # warp (the armed `wake` check rescans the warps to confirm).
            target = self._heap[0][0] if self._heap else None
            wake = soa.next_wake(self.cycle)
            if wake is not None and (target is None or wake < target):
                target = wake
            if self.cycle < self.last_atomic_done and (
                    target is None or self.last_atomic_done < target):
                # Waiting for the ROP to drain fire-and-forget atomics.
                target = self.last_atomic_done
            if target is not None:
                target = max(self.cycle + 1, target)
                if self.inv is not None:
                    self.inv.check_fast_forward(self, self.cycle, target)
                self.cycle = target
                continue

            # Fully quiesced: last-resort flush trigger, then deadlock.
            # Bypasses the dirty gate: it is the only time- (not
            # state-) driven call.
            if progressed:
                self.cycle += 1
                continue
            if self.flush is not None and self.flush.maybe_trigger(
                self.cycle, quiesced=True
            ):
                continue
            if self.inv is not None:
                self.inv.check_fast_forward(self, self.cycle, None)
                self.inv.explain_deadlock(self.cycle, self.flush)
            raise SimulationError(
                f"deadlock at cycle {self.cycle}: no events, no issuable warps "
                f"(kernel={self._current.name if self._current else None})"
            )

        # Book any still-open stall windows through the final epoch
        # (defensive backstop; see SM.settle_stall_windows).
        for sm in sms:
            sm.settle_stall_windows(self.epochs + 1)
        if prof is not None:
            prof.stop("run_total", run_t0)
        return self._collect_result()

    # ------------------------------------------------------------------
    def _collect_result(self, label: str = "") -> SimResult:
        stalls = StallBreakdown()
        instructions = 0
        atomics = 0
        l1_acc = l1_miss = 0
        for sm in self.sms:
            stalls.merge(sm.stalls)
            instructions += sm.instructions
            atomics += sm.atomics
            l1_acc += sm.l1.stats.accesses
            l1_miss += sm.l1.stats.misses
        l2_acc = sum(p.l2.stats.accesses for p in self.partitions)
        l2_miss = sum(p.l2.stats.misses for p in self.partitions)
        fused = 0
        flush_count = flush_cycles = flush_entries = 0
        if self.flush is not None:
            flush_count = self.flush.stats.flushes
            flush_cycles = self.flush.stats.total_flush_cycles
            flush_entries = self.flush.stats.entries
            for sm in self.sms:
                fused += sum(b.stats.fused for b in sm.buffers)
        mode_cycles: Dict[str, int] = {}
        if self.gpudet is not None:
            self.gpudet.finalize(self.cycle)
            mode_cycles = dict(self.gpudet.mode_cycles)
        if not label:
            if self.dab is not None:
                label = "DAB-" + self.dab.label
            elif self.gpudet is not None:
                label = "GPUDet"
            else:
                label = "baseline"
        buffer_stats = [
            {
                "sm": sm.sm_id,
                "buffer": i,
                "name": buf.name,
                "inserts": buf.stats.inserts,
                "fused": buf.stats.fused,
                "reject_full": buf.stats.reject_full,
                "flushes": buf.stats.flushes,
                "flushed_entries": buf.stats.flushed_entries,
                "max_occupancy": buf.stats.max_occupancy,
            }
            for sm in self.sms
            for i, buf in enumerate(sm.buffers)
        ]
        partition_stats = [
            {
                "partition": p.partition_id,
                "reads": p.stats.reads,
                "writes": p.stats.writes,
                "atomics": p.stats.atomics,
                "flush_entries": p.stats.flush_entries,
                "reorder_buffered": p.stats.reorder_buffered,
                "reorder_max_depth": p.stats.reorder_max_depth,
            }
            for p in self.partitions
        ]
        if self.obs is not None and self.obs.metrics is not None:
            self._mirror_metrics()
        return SimResult(
            label=label,
            cycles=self.cycle,
            instructions=instructions,
            atomics=atomics,
            kernels=self.kernels_run,
            mem_digest=self.mem.snapshot_digest(),
            stalls=stalls,
            l1_miss_rate=(l1_miss / l1_acc) if l1_acc else 0.0,
            l2_miss_rate=(l2_miss / l2_acc) if l2_acc else 0.0,
            flush_count=flush_count,
            flush_cycles=flush_cycles,
            flush_entries=flush_entries,
            fused_atomics=fused,
            icnt_packets=self.net_fwd.stats.packets + self.net_rev.stats.packets,
            icnt_queue_delay=self.net_fwd.stats.total_queue_delay
            + self.net_rev.stats.total_queue_delay,
            gpudet_mode_cycles=mode_cycles,
            buffer_stats=buffer_stats,
            partition_stats=partition_stats,
            obs=self.obs,
        )

    def _mirror_metrics(self) -> None:
        """Publish end-of-run component stats into the metrics registry.

        Hot-path code keeps counting in plain attributes (free); this
        one pass mirrors them under hierarchical registry names
        (``sm.3.sched.0.atomics_buffered``,
        ``partition.1.flush.reorder_depth``).  Gauges are overwritten
        and counters deltas applied so repeated ``run()`` calls (multi-
        kernel host drivers) stay correct: we set gauges to the current
        cumulative value.
        """
        m = self.obs.metrics
        # Pinned per cell by the golden timing matrix
        # (tests/golden/timing_matrix.json).
        m.gauge("gpu.run.epochs").set(self.epochs)
        for sm in self.sms:
            prefix = f"sm.{sm.sm_id}"
            for i, buf in enumerate(sm.buffers):
                bp = buf.name or f"{prefix}.buf.{i}"
                m.gauge(f"{bp}.atomics_buffered").set(buf.stats.inserts)
                m.gauge(f"{bp}.atomics_fused").set(buf.stats.fused)
                m.gauge(f"{bp}.full_events").set(buf.stats.reject_full)
                m.gauge(f"{bp}.max_occupancy").set(buf.stats.max_occupancy)
            m.gauge(f"{prefix}.instructions").set(sm.instructions)
            m.gauge(f"{prefix}.atomics").set(sm.atomics)
            for bucket, v in sm.stalls.as_dict().items():
                m.gauge(f"{prefix}.stall.{bucket}").set(v)
        for p in self.partitions:
            pp = f"partition.{p.partition_id}"
            m.gauge(f"{pp}.reads").set(p.stats.reads)
            m.gauge(f"{pp}.writes").set(p.stats.writes)
            m.gauge(f"{pp}.atomics").set(p.stats.atomics)
            m.gauge(f"{pp}.flush.entries").set(p.stats.flush_entries)
            m.gauge(f"{pp}.flush.reorder_depth").set(p.stats.reorder_max_depth)
            m.gauge(f"{pp}.flush.reorder_buffered").set(p.stats.reorder_buffered)
