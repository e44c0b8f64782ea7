"""Sleeping schedulers wake when their answer can change.

A scheduler sleeps (goes clean with its stall window open from the next
epoch) in four states (DESIGN §12 "Sleeping schedulers"):

* after an issue, when no other live warp on its row is timing-ready;
* on a ``buffer_full``, ``flush`` or ``batch`` gate with every
  timing-ready warp waiting at such a closed gate;
* on such a gate with the policy's in-order warp (SRR, GTRR's SRR
  phase) waiting at it, whatever else is ready;
* under GPUDet, when GPUDet holds every timing-ready warp.

Flush start and flush end wake every gate sleeper, a batch advance
those of its SM, and a cell write or a due wake-heap entry any sleeper.
Each test drives a kernel into one of these wake-ups, checks the wake
and the stall window it closes, and compares the per-epoch stall
records, the epoch count, cycles and memory with a run in which that
sleep is disabled.
"""

import dataclasses
from collections import Counter

import pytest

from repro.arch.isa import assemble
from repro.arch.kernel import Kernel
from repro.config import GPUConfig
from repro.core.dab import DABConfig
from repro.core.flush import FlushController
from repro.core.schedulers import SchedRow
from repro.gpudet.gpudet import GPUDetConfig, GPUDetController
from repro.memory.globalmem import GlobalMemory
from repro.sim.gpu import GPU
from repro.sim.nondet import JitterSource
from repro.sim.results import StallBreakdown
from repro.sim.sm import SM
from repro.sim.soa import WarpSlabs
from repro.workloads import Workload

#: CTA 0's warps reach their red at once; every other CTA's wait 50
#: cycles first, so CTA 0's scheduler fills its buffer and sleeps early.
_FILL_PROG = """
    mov.s32 r_t, %tid
    mov.s32 r_c, %ctaid
    shl.s32 r_o, r_t, 2
    add.s32 r_a, c_buf, r_o
    mov.f32 r_v, 1.0
    setp.eq.s32 p_c, r_c, 0
@p_c bra GO
    nop 50
GO:
    red.global.add.f32 [r_a], r_v
    exit
"""

#: CTA 0 exits at once; CTA 1's warp 3 works 300 cycles before it exits
#: (the others exit at once); later CTAs, of the next batch, start with
#: a red, which waits at the batch gate until CTA 1 is done.
_BATCH_PROG = """
    mov.s32 r_c, %ctaid
    setp.eq.s32 p_c, r_c, 0
@p_c bra END
    setp.gt.s32 p_c, r_c, 1
@p_c bra RED
    mov.s32 r_w, %warpid
    setp.ne.s32 p_w, r_w, 3
@p_w bra END
    nop 300
    bra END
RED:
    mov.f32 r_v, 1.0
    red.global.add.f32 [c_x], r_v
END:
    exit
"""


def _workload(source, grid_dim, cta_dim):
    mem = GlobalMemory()
    params = {"c_buf": mem.alloc("buf", 128, "f32"),
              "c_x": mem.alloc("x", 1, "f32")}
    kernel = Kernel("k", assemble(source), grid_dim=grid_dim, cta_dim=cta_dim,
                    params=params)
    return Workload(name="k", mem=mem, kernels=[kernel],
                    outputs=["buf", "x"])


#: The SM's sleep decisions: method -> (its answer when the scheduler
#: stays awake, the reason a sleep's window books from its arguments
#: and answer; None where select's reason is not passed).
SLEEPS = {
    "_issue_sleep": (None, lambda args, got: got),
    "_inorder_sleeps": (False, lambda args, got: args[-1]),
    "_gate_sleeps": (False, lambda args, got: args[-1]),
    "_held_sleeps": (False, lambda args, got: None),
}


class Log:
    """Epoch-stamped stall records per SM, sleeps by kind, wakes and
    flushes.  ``off`` names the sleeps disabled for this run."""

    def __init__(self, monkeypatch, off=()):
        self.gpu = None
        self.records = []   # (epoch, sm, reason, count, bulk)
        #: per sleep: [(epoch, sm, scheduler, reason)]
        self.sleeps = {name: [] for name in SLEEPS}
        self.wakes = []     # (epoch, sm arg, [(row, reason), ...])
        self.flushes = []   # (epoch, "start" | "finish")
        self.due = []       # (epoch, row) woken by a due wake entry
        self.responses = []  # epochs examining a row a load response woke
        log = self

        def sm_of(stalls):
            return next(sm.sm_id for sm in log.gpu.sms
                        if sm.stalls is stalls)

        record, record_bulk = StallBreakdown.record, StallBreakdown.record_bulk

        def spy_record(stalls, reason):
            if log.gpu is not None:
                log.records.append((log.gpu.epochs, sm_of(stalls), reason, 1,
                                    False))
            record(stalls, reason)

        def spy_bulk(stalls, reason, count):
            if log.gpu is not None and count > 0:
                log.records.append((log.gpu.epochs, sm_of(stalls), reason,
                                    count, True))
            record_bulk(stalls, reason, count)

        for name, (awake, reason_of) in SLEEPS.items():
            monkeypatch.setattr(SM, name, self._spy(
                getattr(SM, name), name, awake, reason_of, name in off))

        wake = WarpSlabs.wake_gate_sleepers

        def spy_wake(soa, sm_id=None):
            woken = sorted(
                (r, log.gpu.sms[r // soa.schedulers_per_sm]._acct_reason[
                    r % soa.schedulers_per_sm])
                for r in soa.gate_sleepers
                if sm_id is None or r // soa.schedulers_per_sm == sm_id)
            log.wakes.append((log.gpu.epochs, sm_id, woken))
            wake(soa, sm_id)

        start, finish = FlushController._start_flush, FlushController._finish

        def spy_start(fc, now, *args, **kwargs):
            log.flushes.append((log.gpu.epochs, "start"))
            start(fc, now, *args, **kwargs)

        def spy_finish(fc, now, key):
            log.flushes.append((log.gpu.epochs, "finish"))
            finish(fc, now, key)

        pop_due, load_response = WarpSlabs.pop_due, GPU._load_response

        def spy_pop_due(soa, now):
            before = list(soa.sched_dirty)
            pop_due(soa, now)
            log.due += [(log.gpu.epochs, r) for r, d
                        in enumerate(soa.sched_dirty) if d and not before[r]]

        def spy_response(gpu, now, warp):
            r = warp.sm_id * gpu.soa.schedulers_per_sm + warp.scheduler_id
            was = gpu.soa.sched_dirty[r]
            load_response(gpu, now, warp)
            if gpu.soa.sched_dirty[r] and not was:
                # Events run before the epoch count moves on: the woken
                # scheduler is examined at the next epoch.
                log.responses.append(gpu.epochs + 1)

        monkeypatch.setattr(StallBreakdown, "record", spy_record)
        monkeypatch.setattr(StallBreakdown, "record_bulk", spy_bulk)
        monkeypatch.setattr(WarpSlabs, "pop_due", spy_pop_due)
        monkeypatch.setattr(GPU, "_load_response", spy_response)
        monkeypatch.setattr(WarpSlabs, "wake_gate_sleepers", spy_wake)
        monkeypatch.setattr(FlushController, "_start_flush", spy_start)
        monkeypatch.setattr(FlushController, "_finish", spy_finish)

    def _spy(self, method, name, awake, reason_of, disabled):
        log = self

        def spy(sm, *args):
            if disabled:
                return awake
            got = method(sm, *args)
            if got not in (awake, ""):  # "": no live warp, no window
                row = next(a for a in args if isinstance(a, SchedRow))
                log.sleeps[name].append((log.gpu.epochs, sm.sm_id,
                                         sm.rows.index(row),
                                         reason_of(args, got)))
            return got
        return spy

    def run(self, config, arch, source, grid_dim, cta_dim=128):
        wl = _workload(source, grid_dim, cta_dim)
        kind = ({"dab": arch} if isinstance(arch, DABConfig)
                else {"gpudet": arch} if isinstance(arch, GPUDetConfig)
                else {})
        self.gpu = GPU(config, wl.mem, jitter=JitterSource(1),
                       invariants=True, **kind)
        res = wl.drive(self.gpu)
        return res, {n: wl.mem.buffer(n).tobytes() for n in ("buf", "x")}

    def examination(self, sm_id, epoch):
        """The records booked for ``sm_id`` at ``epoch``."""
        return [(reason, count) for e, sm, reason, count, _b in self.records
                if e == epoch and sm == sm_id]

    def per_epoch(self):
        """The records expanded to one per (epoch, SM, reason): a bulk
        booking at epoch ``e`` of ``n`` covers epochs ``e - n .. e - 1``."""
        out = Counter()
        for e, sm, reason, count, bulk in self.records:
            first = e - count if bulk else e
            for epoch in range(first, first + count):
                out[epoch, sm, reason] += 1
        return out

    def sleeping(self, name, sm_id, before):
        """The last ``name`` sleep of ``sm_id`` before epoch ``before``."""
        return [x for x in self.sleeps[name]
                if x[1] == sm_id and x[0] < before][-1]


def logged_run(monkeypatch, off, *args, **kwargs):
    """Run ``args`` logged, after the same run with the sleep ``off``
    disabled, and check the two agree: per-epoch stall records, epochs,
    cycles and memory."""
    with monkeypatch.context() as m:
        ref = Log(m, off=(off,))
        ref_res, ref_mem = ref.run(*args, **kwargs)
        assert not ref.sleeps[off]
    log = Log(monkeypatch)
    res, mem = log.run(*args, **kwargs)
    assert log.sleeps[off]
    assert log.per_epoch() == ref.per_epoch()
    assert log.gpu.epochs == ref.gpu.epochs
    assert (res.cycles, mem) == (ref_res.cycles, ref_mem)
    return log, res


#: one scheduler per SM, so an SM's stall records are its scheduler's.
ONE_SCHED = dataclasses.replace(GPUConfig.tiny(), num_schedulers_per_sm=1)


class TestFlushWakes:
    ARGS = (ONE_SCHED, DABConfig(buffer_entries=32, scheduler="gwat"),
            _FILL_PROG, 2)

    def test_flush_start_books_buffer_full_then_flush(self, monkeypatch):
        log, _ = logged_run(monkeypatch, "_gate_sleeps", *self.ARGS)
        start = next(e for e, what in log.flushes if what == "start")
        # CTA 0's SM slept on buffer_full well before the flush started
        # (the other SM's warps were still 50 cycles out).
        slept = [(e, sm) for e, sm, _s, reason in log.sleeps["_gate_sleeps"]
                 if reason == "buffer_full" and e < start]
        assert slept
        e0, sm_id = slept[-1]
        assert start - e0 > 1
        woken = next(w for e, arg, w in log.wakes if e == start)
        assert (sm_id, "buffer_full") in woken
        # The waking examination books the window through the flush's
        # own epoch, then the flush gate.
        assert log.examination(sm_id, start + 1) == [
            ("buffer_full", start - e0), ("flush", 1)]
        assert (start + 1, sm_id, 0, "flush") in log.sleeps["_gate_sleeps"]

    def test_flush_end_books_flush_then_issues(self, monkeypatch):
        log, _ = logged_run(monkeypatch, "_gate_sleeps", *self.ARGS)
        start = next(e for e, what in log.flushes if what == "start")
        end = next(e for e, what in log.flushes if what == "finish")
        asleep = [sm for e, sm, _s, reason in log.sleeps["_gate_sleeps"]
                  if reason == "flush" and e == start + 1]
        assert asleep and end - start > 2
        # The completion event runs before the next epoch's issue phase
        # (``end`` is the epoch counter it saw), which examines each
        # woken scheduler: the flush window, then the red issues.
        for sm_id in asleep:
            assert (sm_id, "flush") in next(w for e, arg, w in log.wakes
                                            if e == end and arg is None)
            assert log.examination(sm_id, end + 1) == [
                ("flush", end - start - 1), (None, 1)]


#: one SM (four schedulers): a CTA's warps spread over all four.
ONE_SM = dataclasses.replace(GPUConfig.tiny(), sms_per_cluster=1)


class TestBatchWake:
    @pytest.mark.parametrize("dab", [
        DABConfig.paper_default(),
        DABConfig(scheduler="srr"),
        DABConfig(scheduler="gtar"),
        DABConfig.warp_level(),
    ], ids=["gwat", "srr", "gtar", "warp-gto"])
    def test_batch_advance_wakes_the_other_schedulers(self, monkeypatch,
                                                      dab):
        log, res = logged_run(monkeypatch, "_gate_sleeps", ONE_SM, dab,
                              _BATCH_PROG, 3)
        # CTA 2 (batch 1) waits at the batch gate on all four
        # schedulers; CTA 1's last warp exits on scheduler 3, and the
        # batch advance must wake the other three.
        assert any(reason == "batch"
                   for *_e, reason in log.sleeps["_gate_sleeps"])
        batch_wakes = [w for _e, arg, w in log.wakes if arg == 0 and w]
        assert batch_wakes == [[(0, "batch"), (1, "batch"), (2, "batch")]]
        assert res.stalls.batch > 0


#: one warp: three ALU steps, a load that misses, then an ALU step that
#: waits for it, a store and exit.
_ISSUE_PROG = """
    mov.s32 r_t, %tid
    shl.s32 r_o, r_t, 2
    add.s32 r_a, c_buf, r_o
    ld.global.f32 r_v, [r_a]
    mov.f32 r_w, 1.0
    add.f32 r_v, r_v, r_w
    st.global.f32 [r_a], r_v
    exit
"""


class TestIssueSleep:
    """After an issue with no other live warp timing-ready, the
    scheduler sleeps in a ``mem`` window until the issued warp's wake
    entry comes due or a load response lands."""

    def test_woken_by_wake_entry_and_load_response(self, monkeypatch):
        log, res = logged_run(monkeypatch, "_issue_sleep", ONE_SCHED, None,
                              _ISSUE_PROG, 1, cta_dim=32)
        assert res.instructions == 8
        # The first ALU issue sleeps; its warp's wake entry wakes it.
        e0 = log.sleeps["_issue_sleep"][0][0]
        woken = next(e for e, row in log.due if e > e0)
        assert log.examination(0, woken) == [("mem", woken - e0 - 1),
                                             (None, 1)]
        # The load's issue sleeps until its first sector's response.
        # Each response books the window and opens another; the last
        # makes the warp ready one cycle later, at its wake entry.
        first, last = log.responses[0], log.responses[-1]
        e0 = log.sleeping("_issue_sleep", 0, first)[0]
        assert first - e0 > 2
        assert log.examination(0, first) == [("mem", first - e0 - 1)]
        due = next(e for e, row in log.due if e > last)
        assert log.examination(0, due) == [("mem", due - last), (None, 1)]

    def test_issued_warp_still_ready_keeps_it_awake(self, monkeypatch):
        # With no ALU latency the issued warp is timing-ready again at
        # once: the first sleep is the load's.
        config = dataclasses.replace(ONE_SCHED, alu_latency=0)
        log, _ = logged_run(monkeypatch, "_issue_sleep", config, None,
                            _ISSUE_PROG, 1, cta_dim=32)
        assert [(e, s) for e, *_x, s in log.sleeps["_issue_sleep"]][0] == (
            4, "mem")
        assert log.examination(0, 2) == log.examination(0, 3) == [(None, 1)]


#: warp 0 reaches its red at once; warp 1 works 100 cycles first.
_HELD_PROG = """
    mov.s32 r_w, %warpid
    setp.eq.s32 p_w, r_w, 0
@p_w bra RED
    nop 100
RED:
    mov.f32 r_v, 1.0
    red.global.add.f32 [c_x], r_v
    exit
"""


class TestHeldSleep:
    """Under GPUDet, a scheduler whose every timing-ready warp GPUDet
    holds sleeps until a hold ends through a cell write."""

    def test_woken_at_parallel_mode_start(self, monkeypatch):
        starts = []
        serial_done = GPUDetController._serial_done

        def spy_serial_done(ctl, now, args):
            asleep = ctl.gpu.sms[0]._acct_reason[0]
            serial_done(ctl, now, args)
            # Examined at the next epoch (events run before it starts).
            starts.append((ctl.gpu, ctl.gpu.epochs + 1, asleep))

        monkeypatch.setattr(GPUDetController, "_serial_done",
                            spy_serial_done)
        # Both warps of the CTA share SM 0's one scheduler.
        log, res = logged_run(monkeypatch, "_held_sleeps", ONE_SCHED,
                              GPUDetConfig(), _HELD_PROG, 1, cta_dim=64)
        woken, asleep = next((e, r) for gpu, e, r in starts
                             if gpu is log.gpu)
        held = [e for e, *_x in log.sleeps["_held_sleeps"]]
        assert held[0] < woken
        # Warp 0's quantum ended at its red while warp 1 ran on: the
        # scheduler slept held until warp 1's wake entry, then issued.
        due = next(e for e, _r in log.due if e > held[0])
        assert log.examination(0, due)[-1] == (None, 1)
        # Warp 1 reached its red too.  Through the commit and serial
        # modes the scheduler slept held; at the parallel mode's start
        # the ready bump wakes it, and it books its window and issues.
        assert res.gpudet_mode_cycles["serial"] > 0
        e0 = log.sleeping("_held_sleeps", 0, woken)[0]
        assert asleep == "mem"
        assert log.examination(0, woken) == [("mem", woken - e0 - 1),
                                             (None, 1)]


#: each warp's red fills a 32-entry buffer; ALU work follows it.
_INORDER_PROG = """
    mov.s32 r_t, %tid
    shl.s32 r_o, r_t, 2
    add.s32 r_a, c_buf, r_o
    mov.f32 r_v, 1.0
    red.global.add.f32 [r_a], r_v
    mov.s32 r_t, 0
    mov.s32 r_t, 1
    exit
"""


class TestInorderSleep:
    """SRR cannot pass its in-order warp: while that warp waits at a
    closed gate the scheduler sleeps, even with another warp ready at a
    non-atomic instruction."""

    def test_flush_end_wakes_the_inorder_sleeper(self, monkeypatch):
        refused = []
        gate_sleeps, inorder_sleeps = SM._gate_sleeps, SM._inorder_sleeps

        def spy(sm, sched, row, now, reason):
            got = inorder_sleeps(sm, sched, row, now, reason)
            if got and not gate_sleeps(sm, row, now, reason):
                refused.append((sm.gpu.epochs, reason))
            return got

        monkeypatch.setattr(SM, "_inorder_sleeps", spy)
        # Warp 0's red fills the buffer; warp 1's, next in order, trips
        # the full bit and the flush starts; warp 0 runs on to its ALU
        # work, which strict round robin may not issue before warp 1.
        log, _ = logged_run(monkeypatch, "_inorder_sleeps", ONE_SCHED,
                            DABConfig(buffer_entries=32, scheduler="srr"),
                            _INORDER_PROG, 1, cta_dim=64)
        start = next(e for e, what in log.flushes if what == "start")
        end = next(e for e, what in log.flushes if what == "finish")
        # The gate rule alone would have kept it awake (warp 0 ready).
        assert any(start < e < end and reason == "flush"
                   for e, reason in refused)
        e0, _sm, _s, reason = log.sleeping("_inorder_sleeps", 0, end + 1)
        assert reason == "flush" and end - e0 > 1
        assert (0, "flush") in next(w for e, arg, w in log.wakes
                                    if e == end and arg is None)
        # The flush end books the flush window; warp 1's red issues.
        assert log.examination(0, end + 1) == [("flush", end - e0),
                                               (None, 1)]
