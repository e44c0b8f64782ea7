"""Gate-blocked schedulers sleep, and wake at every gate event.

A scheduler whose ``select`` ends on a ``buffer_full``, ``flush`` or
``batch`` gate, with every timing-ready warp waiting at such a closed
gate, goes clean with its stall window open under that reason
(DESIGN §12).  Flush start and flush end wake every sleeper, a batch
advance those of its SM.  Each test drives a kernel into one of these
wake-ups, checks the wake and the stall window it closes, and compares
the stall breakdown with a run in which no scheduler sleeps.
"""

import dataclasses

import pytest

from repro.arch.isa import assemble
from repro.arch.kernel import Kernel
from repro.config import GPUConfig
from repro.core.dab import DABConfig
from repro.core.flush import FlushController
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


def _workload(source, grid_dim):
    mem = GlobalMemory()
    params = {"c_buf": mem.alloc("buf", 128, "f32"),
              "c_x": mem.alloc("x", 1, "f32")}
    kernel = Kernel("k", assemble(source), grid_dim=grid_dim, cta_dim=128,
                    params=params)
    return Workload(name="k", mem=mem, kernels=[kernel],
                    outputs=["buf", "x"])


class Log:
    """Epoch-stamped stall records per SM, sleeps, wakes and flushes."""

    def __init__(self, monkeypatch, sleep=True):
        self.gpu = None
        self.records = []   # (epoch, sm, reason, count)
        self.sleeps = []    # (epoch, sm, scheduler, reason)
        self.wakes = []     # (epoch, sm arg, [(row, reason), ...])
        self.flushes = []   # (epoch, "start" | "finish")
        log = self

        def sm_of(stalls):
            return next(sm.sm_id for sm in log.gpu.sms
                        if sm.stalls is stalls)

        record, record_bulk = StallBreakdown.record, StallBreakdown.record_bulk

        def spy_record(stalls, reason):
            if log.gpu is not None:
                log.records.append((log.gpu.epochs, sm_of(stalls), reason, 1))
            record(stalls, reason)

        def spy_bulk(stalls, reason, count):
            if log.gpu is not None and count > 0:
                log.records.append((log.gpu.epochs, sm_of(stalls), reason,
                                    count))
            record_bulk(stalls, reason, count)

        gate_sleeps = SM._gate_sleeps

        def spy_sleeps(sm, row, now, reason):
            ok = sleep and gate_sleeps(sm, row, now, reason)
            if ok:
                log.sleeps.append((log.gpu.epochs, sm.sm_id,
                                   sm.rows.index(row), reason))
            return ok

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

        monkeypatch.setattr(StallBreakdown, "record", spy_record)
        monkeypatch.setattr(StallBreakdown, "record_bulk", spy_bulk)
        monkeypatch.setattr(SM, "_gate_sleeps", spy_sleeps)
        monkeypatch.setattr(WarpSlabs, "wake_gate_sleepers", spy_wake)
        monkeypatch.setattr(FlushController, "_start_flush", spy_start)
        monkeypatch.setattr(FlushController, "_finish", spy_finish)

    def run(self, config, dab, source, grid_dim):
        wl = _workload(source, grid_dim)
        self.gpu = GPU(config, wl.mem, dab=dab, jitter=JitterSource(1),
                       invariants=True)
        res = wl.drive(self.gpu)
        return res, {n: wl.mem.buffer(n).tobytes() for n in ("buf", "x")}

    def examination(self, sm_id, epoch):
        """The records booked for ``sm_id`` at ``epoch``."""
        return [(reason, count) for e, sm, reason, count in self.records
                if e == epoch and sm == sm_id]


def logged_run(monkeypatch, *args):
    """Run ``args`` logged, after the same run with no scheduler
    sleeping, and check the two agree: per-SM stall breakdowns, cycles
    and memory."""
    with monkeypatch.context() as m:
        ref = Log(m, sleep=False)
        ref_res, ref_mem = ref.run(*args)
        assert not ref.sleeps
    log = Log(monkeypatch)
    res, mem = log.run(*args)
    assert log.sleeps
    assert ([sm.stalls.as_dict() for sm in log.gpu.sms]
            == [sm.stalls.as_dict() for sm in ref.gpu.sms])
    assert (res.cycles, mem) == (ref_res.cycles, ref_mem)
    return log, res


#: one scheduler per SM, so an SM's stall records are its scheduler's.
ONE_SCHED = dataclasses.replace(GPUConfig.tiny(), num_schedulers_per_sm=1)


class TestFlushWakes:
    ARGS = (ONE_SCHED, DABConfig(buffer_entries=32, scheduler="gwat"),
            _FILL_PROG, 2)

    def test_flush_start_books_buffer_full_then_flush(self, monkeypatch):
        log, _ = logged_run(monkeypatch, *self.ARGS)
        start = next(e for e, what in log.flushes if what == "start")
        # CTA 0's SM slept on buffer_full well before the flush started
        # (the other SM's warps were still 50 cycles out).
        slept = [(e, sm) for e, sm, _s, reason in log.sleeps
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
        assert (start + 1, sm_id, 0, "flush") in log.sleeps

    def test_flush_end_books_flush_then_issues(self, monkeypatch):
        log, _ = logged_run(monkeypatch, *self.ARGS)
        start = next(e for e, what in log.flushes if what == "start")
        end = next(e for e, what in log.flushes if what == "finish")
        asleep = [sm for e, sm, _s, reason in log.sleeps
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
        log, res = logged_run(monkeypatch, ONE_SM, dab, _BATCH_PROG, 3)
        # CTA 2 (batch 1) waits at the batch gate on all four
        # schedulers; CTA 1's last warp exits on scheduler 3, and the
        # batch advance must wake the other three.
        assert any(reason == "batch" for *_e, reason in log.sleeps)
        batch_wakes = [w for _e, arg, w in log.wakes if arg == 0 and w]
        assert batch_wakes == [[(0, "batch"), (1, "batch"), (2, "batch")]]
        assert res.stalls.batch > 0
