"""DAB's deterministic buffer-flush state machine (paper Section IV-D).

A flush makes every atomic buffered anywhere on the GPU globally visible
in a deterministic order:

1. **Trigger.**  A flush may start only when *every* participating
   buffer is at a deterministic point: its sticky full bit is set, all
   warps feeding it have exited, or all warps feeding it are blocked at
   a barrier/fence.  (The paper states the triggers as "all buffers
   full, kernel exit, or memory fence"; the generalization to
   "full-or-retired-or-fenced" is the progress guarantee those triggers
   imply — a buffer whose warps are merely slow is *not* ready, and the
   flush waits for it, otherwise the captured entry set would depend on
   timing.)
2. **Pre-flush messages.**  Each participating cluster announces to
   every memory sub-partition how many transactions to expect from each
   SM (Fig 8a).  A sub-partition holds all arriving entries until every
   pre-flush message has arrived.  The whole grid (40 clusters x 24
   sub-partitions = 960 packets per flush at TITAN V scale) is sent in
   one pass (``Network.send_grid``).
3. **Entry streaming.**  Each SM pushes its buffer contents through the
   interconnect in deterministic stream order — buffers in scheduler-id
   order, entries in buffer-index order, optionally rotated by the
   offset-flushing optimization (Section VI-B2) and grouped into
   coalesced transactions (Section IV-F).
4. **Reordering.**  Each sub-partition commits transactions in
   round-robin-across-SM order using its flush buffer (Fig 8c-d), then
   applies the atomics serially at its ROP.
5. **Completion.**  Flushes do not overlap: the next flush can only
   trigger once every write-back of the previous one has been received
   (relaxed by DAB-NR-OF / DAB-NR-CIF in the Fig 18 limitation study).

While a flush is in flight, atomic issue is gated GPU-wide (the
"implicit barrier across SMs" whose cost Fig 18 isolates); non-atomic
instructions keep executing.  A scheduler asleep on an atomic-issue gate
(DESIGN §12) is woken when a flush starts and when one completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.atomic_buffer import FlushTransaction
from repro.core.dab import DABConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.gpu import GPU

PRE_FLUSH_BYTES = 8


@dataclass
class FlushStats:
    flushes: int = 0
    cluster_flushes: int = 0
    entries: int = 0
    transactions: int = 0
    total_flush_cycles: int = 0
    trigger_full: int = 0
    trigger_fence: int = 0
    trigger_drain: int = 0
    trigger_quiesce: int = 0


class FlushController:
    """GPU-wide (or per-cluster, under CIF) flush orchestration."""

    def __init__(self, gpu: "GPU", config: DABConfig):
        self.gpu = gpu
        self.config = config
        self.obs = getattr(gpu, "obs", None)
        #: the GPU's warp rows and buffer counters (repro.sim.soa); None
        #: for test doubles without them.
        self.soa = getattr(gpu, "soa", None)
        self.stats = FlushStats()
        self._fence_requested = False
        self._drain_requested = False
        #: the cycle of the oldest pending fence or drain request.
        self._fence_requested_at: Optional[int] = None
        self._drain_requested_at: Optional[int] = None
        #: live flush rounds per cluster id (CIF) or -1 (global).
        self._active: Dict[int, dict] = {}
        if self.obs is not None and self.obs.metrics is not None:
            from repro.obs import FLUSH_CYCLE_EDGES

            m = self.obs.metrics
            self._m_count = m.counter("flush.count")
            self._m_entries = m.counter("flush.entries")
            self._m_txns = m.counter("flush.transactions")
            self._m_cycles = m.histogram("flush.cycles", FLUSH_CYCLE_EDGES)
        else:
            self._m_count = self._m_entries = None
            self._m_txns = self._m_cycles = None

    # ------------------------------------------------------------------
    @property
    def any_active(self) -> bool:
        return bool(self._active)

    def flush_gate_blocked(self, cluster_id: int) -> bool:
        """True if atomics of this cluster must stall for an active flush."""
        if not self._active:
            return False
        if self.config.relax_cluster_flush:
            return cluster_id in self._active
        return True

    def request_fence_flush(self, now: int) -> None:
        """A warp executed ``membar``/``bar.sync``: flush before release."""
        if not self._fence_requested:
            self._fence_requested = True
            self._fence_requested_at = now
        self.gpu._flush_dirty = True

    def request_drain_flush(self, now: int) -> None:
        """Kernel drained with non-empty buffers."""
        if not self._drain_requested:
            self._drain_requested = True
            self._drain_requested_at = now
        self.gpu._flush_dirty = True

    def starved(self) -> str:
        """Why a wanted flush cannot start, or "".

        A flush is wanted while a fence or drain request is pending or a
        buffer is full.  It cannot start while some buffer is not at a
        deterministic point.  The message names the request, the cycle
        it was made, and each such buffer with its live feeders not at
        a barrier (warp uid, CTA, pc).  The run loop appends it to its
        cycle-limit error, so a starved flush fails loudly.
        """
        wants = []
        if self._fence_requested:
            wants.append(f"fence flush requested at cycle "
                         f"{self._fence_requested_at}")
        if self._drain_requested:
            wants.append(f"drain flush requested at cycle "
                         f"{self._drain_requested_at}")
        if any(sm.any_buffer_full() for sm in self.gpu.sms):
            wants.append("a buffer is full")
        if not wants:
            return ""
        stuck = [
            f"{buf.name} ({buf.occupancy} entries) fed by "
            + ", ".join(f"warp {w.uid} (CTA {w.cta.cta_id}, pc {w.pc})"
                        for w in feeders)
            for sm in self.gpu.sms
            for buf, feeders in sm.unready_buffers()
        ]
        if not stuck:
            return ""
        return (f"starved flush ({', '.join(wants)}): buffers not at a "
                f"deterministic point, with live feeders not at a "
                f"barrier: {'; '.join(stuck)}")

    # ------------------------------------------------------------------
    def maybe_trigger(self, now: int, quiesced: bool = False) -> bool:
        """Evaluate trigger conditions; start flush(es) if met.

        ``quiesced`` is set by the GPU loop when no warp can issue and no
        timing event is pending — the deadlock-avoidance trigger (every
        live warp is then blocked at a deterministic gate).
        """
        if self.config.relax_cluster_flush:
            return self._maybe_trigger_cif(now)

        if self._active and not self.config.relax_overlap_flush:
            return False
        sms = self.gpu.sms
        soa = self.soa
        if soa is not None:
            # O(1) counters kept by the buffers (repro.sim.soa); the
            # armed `wake` invariant checks them against the buffers.
            nonempty = soa.buf_nonempty_count > 0
            any_full = soa.buf_full_count > 0
        else:  # test doubles without counters
            nonempty = any(sm.any_buffer_nonempty() for sm in sms)
            any_full = any(sm.any_buffer_full() for sm in sms)
        want = (
            (nonempty and any_full)
            or (self._fence_requested)
            or (self._drain_requested and nonempty)
            or (quiesced and nonempty)
        )
        if not want:
            if self._drain_requested and not nonempty:
                self._drain_requested = False
                self._drain_requested_at = None
            return False
        # The feeder scan is the expensive query, evaluated only once a
        # trigger condition is actually met, and only on SMs with a live
        # warp: elsewhere every feeder finished, so every buffer is at a
        # deterministic point.
        if not all(sm.buffers_flush_ready() for sm in sms if sm.live_count):
            # Not every buffer is at a deterministic point yet; under a
            # global quiesce this cannot happen (everything is blocked),
            # but re-check defensively.
            if not quiesced:
                return False
        if any_full:
            self.stats.trigger_full += 1
            reason = "full"
        elif self._fence_requested:
            self.stats.trigger_fence += 1
            reason = "fence"
        elif self._drain_requested:
            self.stats.trigger_drain += 1
            reason = "drain"
        else:
            self.stats.trigger_quiesce += 1
            reason = "quiesce"
        self._clear_requests()
        self._start_flush(now, [sm.sm_id for sm in sms],
                          key=-1 if not self.config.relax_overlap_flush
                          else self.stats.flushes, reason=reason)
        return True

    def _maybe_trigger_cif(self, now: int) -> bool:
        """DAB-NR-CIF: each cluster flushes independently when ready."""
        started = False
        for cluster in self.gpu.clusters:
            cid = cluster.cluster_id
            if cid in self._active:
                continue
            sms = cluster.sms
            nonempty = any(sm.any_buffer_nonempty() for sm in sms)
            any_full = any(sm.any_buffer_full() for sm in sms)
            fence = self._fence_requested
            drain = self._drain_requested and nonempty
            if not (any_full or fence or drain):
                continue
            if not all(sm.buffers_flush_ready() for sm in sms
                       if sm.live_count):
                continue
            self.stats.cluster_flushes += 1
            reason = "full" if any_full else ("fence" if fence else "drain")
            self._start_flush(now, [sm.sm_id for sm in sms], key=cid,
                              reason=reason)
            started = True
        if started:
            # Fence/drain requests are satisfied once every cluster with
            # content has flushed; cleared lazily when all complete.
            soa = self.soa
            if (soa.buf_nonempty_count == 0 if soa is not None
                    else not any(sm.any_buffer_nonempty()
                                 for sm in self.gpu.sms)):
                self._clear_requests()
        return started

    def _clear_requests(self) -> None:
        self._fence_requested = self._drain_requested = False
        self._fence_requested_at = self._drain_requested_at = None

    def _wake_gate_sleepers(self) -> None:
        """The flush gate closed or opened: wake every scheduler asleep
        on a gate."""
        if self.soa is not None:
            self.soa.wake_gate_sleepers()

    # ------------------------------------------------------------------
    def _start_flush(self, now: int, sm_ids: List[int], key: int,
                     reason: str = "full") -> None:
        gpu = self.gpu
        cfg = self.config
        self.stats.flushes += 1
        seq = self.stats.flushes
        # Warp-level buffer drains can free hardware slots mid-kernel.
        gpu._dispatch_dirty = True

        # 1. Drain buffers into per-SM deterministic transaction streams.
        streams: Dict[int, List[FlushTransaction]] = {}
        for sm_id in sm_ids:
            sm = gpu.sms[sm_id]
            offset = 0
            if cfg.offset_flush and sm_id % 2 == 0:
                offset = cfg.offset_entries
            streams[sm_id] = sm.drain_dab_buffers(
                coalesce=cfg.coalescing, offset=offset
            )

        # 2. Per-partition expected transaction counts per SM.
        num_parts = len(gpu.partitions)
        expected: List[Dict[int, int]] = [dict() for _ in range(num_parts)]
        total_ops = 0
        total_txns = 0
        for sm_id, txns in streams.items():
            for txn in txns:
                p = gpu.addr_map.partition_of(txn.sector)
                expected[p][sm_id] = expected[p].get(sm_id, 0) + 1
                total_ops += len(txn.ops)
                total_txns += 1
        self.stats.entries += total_ops
        self.stats.transactions += total_txns
        if self._m_count is not None:
            self._m_count.inc()
            self._m_entries.inc(total_ops)
            self._m_txns.inc(total_txns)

        obs = self.obs
        if obs is not None and obs.wants("flush"):
            obs.emit_at(now, "flush", "begin", seq=seq, key=key,
                        reason=reason, sms=len(sm_ids), entries=total_ops,
                        txns=total_txns)
            for sm_id in sorted(streams):
                txns = streams[sm_id]
                obs.emit_at(now, "flush", "drain", seq=seq, key=key,
                            sm=sm_id,
                            entries=sum(len(t.ops) for t in txns),
                            txns=len(txns))
            for p in range(num_parts):
                if expected[p]:
                    obs.emit_at(now, "flush", "preflush", seq=seq, key=key,
                                partition=p,
                                txns=sum(expected[p].values()),
                                sms=len(expected[p]))

        state = {
            "started": now,
            "remaining_ops": total_ops,
            "last_done": now,
            "seq": seq,
            "entries": total_ops,
        }
        self._active[key] = state
        self._wake_gate_sleepers()

        if total_ops == 0:
            # Nothing buffered (pure fence release): complete immediately.
            self._finish(now, key)
            return

        use_reorder = not cfg.relax_no_reorder
        use_preflush = not cfg.relax_cluster_flush

        # 3. Pre-flush messages: one per (cluster, partition), sent as
        # one grid whose arrivals come back cluster-major.
        fi = getattr(gpu, "faults", None)
        pre_barrier = [now] * num_parts
        if use_preflush:
            clusters = sorted({gpu.sms[s].cluster_id for s in sm_ids})
            arrivals = gpu.net_fwd.send_grid(now, clusters, range(num_parts),
                                             PRE_FLUSH_BYTES)
            if fi is not None:
                arrivals = [
                    arr + fi.preflush_delay(clusters[k // num_parts],
                                            k % num_parts)
                    for k, arr in enumerate(arrivals)
                ]
            pre_barrier = [max(now, *arrivals[p::num_parts])
                           for p in range(num_parts)]

        # 4. Begin rounds and stream the entries.  Under NR the reorder
        # buffer is bypassed entirely (arrival order commits), which also
        # permits overlapping rounds for OF/CIF.
        if use_reorder:
            for p in range(num_parts):
                gpu.partitions[p].begin_flush_round(expected[p])

        for sm_id in sorted(streams):
            sm = gpu.sms[sm_id]
            for txn in streams[sm_id]:
                p = gpu.addr_map.partition_of(txn.sector)
                action = (fi.flush_entry_action(sm_id, p)
                          if fi is not None else None)
                if action == "drop":
                    # The transaction was announced but never arrives;
                    # the protocol has no drop-site error — detection is
                    # the InvariantChecker's job (deadlock post-mortem).
                    if obs is not None:
                        obs.emit_at(now, "fault", "drop_flush_entry",
                                    sm=sm_id, partition=p,
                                    ops=len(txn.ops))
                    continue
                arr = gpu.net_fwd.send(now, sm.cluster_id, p, txn.payload_bytes)
                when = max(arr, pre_barrier[p])
                if fi is not None:
                    when = fi.deliver_at(sm_id, p, when)
                gpu.schedule(
                    when,
                    self._entry_arrival,
                    (key, p, sm_id, txn),
                )
                if action == "dup":
                    if obs is not None:
                        obs.emit_at(now, "fault", "dup_flush_entry",
                                    sm=sm_id, partition=p,
                                    ops=len(txn.ops))
                    dup_when = fi.deliver_at(sm_id, p, when + 1)
                    gpu.schedule(
                        dup_when,
                        self._entry_arrival,
                        (key, p, sm_id, txn),
                    )

    # -- event handlers -----------------------------------------------------
    def _entry_arrival(self, now: int, args) -> None:
        key, p, sm_id, txn = args
        state = self._active.get(key)
        if state is None:
            # The flush already completed: a duplicated (or stale) entry
            # arriving late.  Surface it structurally rather than
            # corrupting memory with a second application.
            inv = getattr(self.gpu, "inv", None)
            if inv is not None:
                inv.on_late_arrival(p, sm_id)
            from repro.sim.gpu import SimulationError

            raise SimulationError(
                f"flush entry from sm {sm_id} arrived at cycle {now} after "
                f"flush {key} completed (duplicated or stale entry)"
            )
        if self.config.relax_no_reorder:
            applied = self.gpu.partitions[p].apply_flush_ops(now, list(txn.ops))
        else:
            applied, _occ = self.gpu.partitions[p].receive_flush_entry(
                now, sm_id, list(txn.ops)
            )
        for _old, done in applied:
            state["remaining_ops"] -= 1
            state["last_done"] = max(state["last_done"], done)
        if state["remaining_ops"] == 0:
            self.gpu.schedule(state["last_done"], self._finish_event, key)

    def _finish_event(self, now: int, key) -> None:
        self._finish(now, key)

    def _finish(self, now: int, key: int) -> None:
        state = self._active.pop(key)
        self._wake_gate_sleepers()
        self.stats.total_flush_cycles += now - state["started"]
        if self._m_cycles is not None:
            self._m_cycles.observe(now - state["started"])
        if self.obs is not None:
            self.obs.emit_at(now, "flush", "complete", seq=state["seq"],
                             key=key, started=state["started"],
                             cycle_done=now, entries=state["entries"])
        # A completed flush can unblock the next trigger (pending fence
        # or drain request, sticky full bits set while we were active).
        self.gpu._flush_dirty = True
        # Release the barrier and fence waits complete before the flush
        # started: this flush drained their buffered atomics.  Later
        # arrivals wait for the next flush (their request is still set).
        for sm in self.gpu.sms:
            if sm._barrier_ctas or sm._fence_warps:
                sm.release_waits(now, since=state["started"])
