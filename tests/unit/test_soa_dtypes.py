"""Exact scalar types on the determinism surfaces.

The warp timing rows, the fault substream draws, and the metrics
document are all places where a numpy scalar or a platform-default
``intp``/``float64`` could silently replace an exact Python value and
change either the random bitstream (numpy consumes a different number
of words per bounded draw depending on the dtype) or a serialized
digest.  These tests assert the types at the source rather than
waiting for a cross-platform digest mismatch.
"""

import json
import os
import subprocess
import sys

import pytest

import repro.arch.warp as warp_mod
from repro.config import GPUConfig
from repro.core.dab import DABConfig
from repro.faults import FaultPlan
from repro.harness.runner import ArchSpec, run_workload
from repro.sim.gpu import GPU
from repro.sim.nondet import JitterSource
from repro.sim.soa import WarpSlabs
from repro.workloads.microbench import build_atomic_sum, build_histogram

#: (WarpSlabs row attribute, exact cell type).
ROW_FIELDS = (
    ("ready_cycle", int), ("out_loads", int), ("out_atoms", int),
    ("pc", int), ("at_barrier", bool), ("active", bool),
)


def _make_slabs():
    return WarpSlabs(num_sms=2, schedulers_per_sm=2, slots_per_scheduler=4)


@pytest.mark.parametrize("dab", [DABConfig.paper_default(), None],
                         ids=["dab", "baseline"])
def test_row_cells_are_plain_python(dab, monkeypatch):
    """Row cells and ``warp_wake`` entries are exact ``int``/``bool``.

    A plain list stores a stray numpy scalar as-is, where an int64 array
    would coerce it.  The grid is four times what the machine holds, so
    CTAs retire and hardware slots are rebound mid-kernel.  The heap is
    drained as a run goes, so every pushed entry is recorded.
    """
    pushed = []
    warp_push = warp_mod.heappush

    def record_warp_wake(heap, entry):
        pushed.append(entry)
        warp_push(heap, entry)

    monkeypatch.setattr(warp_mod, "heappush", record_warp_wake)
    wl = build_atomic_sum(n=16384, cta_dim=128)
    gpu = GPU(GPUConfig.small(), wl.mem, dab=dab, jitter=JitterSource(1))
    wl.drive(gpu)

    assert all(sm.ctas_placed > sm._ctas_per_wave for sm in gpu.sms)
    cfg = gpu.config
    s = gpu.soa
    for name, kind in ROW_FIELDS:
        rows = getattr(s, name)
        assert len(rows) == cfg.num_sms * cfg.num_schedulers_per_sm, name
        for row in rows:
            assert len(row) == cfg.warps_per_scheduler, name
            assert all(type(v) is kind for v in row), name
    assert {len(e) for e in pushed} == {3}
    assert all(type(v) is int for e in pushed + s.warp_wake for v in e)


def test_calendars_are_plain_python():
    """The per-scheduler/per-SM calendars carry exact Python scalars.

    They are plain lists on purpose (scalar list access beats numpy
    getitem ~4x on the hot path) — and a numpy scalar sneaking in would
    be the first step of a dtype leak into stall accounting.
    """
    s = _make_slabs()
    assert isinstance(s.sched_dirty, list)
    assert all(type(d) is bool for d in s.sched_dirty)
    assert type(s.buf_nonempty_count) is int
    assert type(s.buf_full_count) is int


def test_fault_draws_return_python_ints():
    plan = FaultPlan.sample(7)
    cfg = plan.config
    for field in ("dram_burst_len", "dram_burst_extra", "icnt_spike_max",
                  "reorder_max_delay", "stall_windows", "stall_len",
                  "preflush_max_delay"):
        assert type(getattr(cfg, field)) is int, field
    inj = plan.injector()
    draws = [inj.dram_extra(0) for _ in range(50)]
    draws += [inj.icnt_extra() for _ in range(50)]
    draws += [inj.delay_for(0, 1, when=i) for i in range(50)]
    draws += [inj.preflush_delay(0, 0) for _ in range(50)]
    draws += [w for pair in inj.stall_windows_for(0) for w in pair]
    assert all(type(d) is int for d in draws)
    jit = JitterSource(3)
    assert all(type(jit.dram()) is int and type(jit.icnt()) is int
               for _ in range(50))


def test_metrics_document_is_plain_json_types():
    """No numpy scalar may reach the serialized metrics document."""
    res = run_workload(lambda: build_histogram(n=256, bins=16),
                       ArchSpec.baseline(), gpu_config=GPUConfig.small(),
                       seed=1)
    doc = res.metrics_dict()
    doc.pop("host_profile", None)

    def walk(node, path):
        if isinstance(node, dict):
            for k, v in node.items():
                assert type(k) is str, f"non-str key at {path}: {k!r}"
                walk(v, f"{path}.{k}")
        elif isinstance(node, (list, tuple)):
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")
        else:
            assert type(node) in (int, float, str, bool, type(None)), \
                f"non-JSON scalar {type(node).__name__} at {path}"

    walk(doc, "$")
    json.dumps(doc)  # and it must round-trip


_PROMOTION_PROBE = """
import os, sys
sys.path.insert(0, {src!r})
from repro.config import GPUConfig
from repro.harness.runner import ArchSpec, run_workload
from repro.workloads.microbench import build_histogram
res = run_workload(lambda: build_histogram(n=256, bins=16),
                   ArchSpec.baseline(), gpu_config=GPUConfig.small(),
                   seed=1)
print(res.mem_digest, res.cycles)
"""


@pytest.mark.parametrize("state", ["weak", "legacy"])
def test_digest_stable_under_promotion_state(state):
    """Same digest under either numpy promotion-state setting.

    ``NPY_PROMOTION_STATE`` only affects numpy 1.24-2.0 (newer releases
    adopted weak promotion unconditionally and ignore the variable);
    the run is still exercised there so the probe keeps guarding older
    installs without asserting anything numpy no longer promises.
    """
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    script = _PROMOTION_PROBE.format(src=os.path.abspath(src))
    outs = []
    for st in (None, state):
        env = dict(os.environ)
        env.pop("NPY_PROMOTION_STATE", None)
        if st is not None:
            env["NPY_PROMOTION_STATE"] = st
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.strip())
    assert outs[0] == outs[1]
