"""The golden timing matrix: seed-1 timing digests of the run engine.

Each cell is one run of a workload on an architecture, a GPU preset
and, optionally, a fault plan, with seed 1, metrics and tracing on,
the reduction-commit stream recorded and every invariant armed.  Its
entry in ``tests/golden/timing_matrix.json`` pins the cycle count, the
stall breakdown, the epoch count and the GPUDet mode cycles, plus
digests of the final memory, the workload output, the trace, the
commit multiset and the whole metrics document (without
``host_profile``, which is wall clock, and ``extra.invariant_checks``,
the armed checker's tally).  The entries were captured from unarmed
runs, so a matching armed replay also shows the checker only reads.

Any change to when a warp issues shows up as a named drift, field by
field.  Intentional changes are re-pinned with::

    python -m pytest tests/integration/test_timing_golden.py --update-golden
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.arch.isa import assemble
from repro.arch.kernel import Kernel
from repro.config import GPUConfig
from repro.core.dab import DABConfig
from repro.faults import FaultConfig, FaultPlan
from repro.gpudet.gpudet import GPUDetConfig
from repro.harness.runner import ArchSpec, run_workload
from repro.memory.globalmem import GlobalMemory
from repro.obs import ObsConfig
from repro.sim.results import SimResult
from repro.workloads import Workload
from repro.workloads.bc import build_bc
from repro.workloads.convolution import build_conv
from repro.workloads.locks import build_lock_sum
from repro.workloads.microbench import (
    build_atomic_sum,
    build_histogram,
    build_mc_barrier,
    build_order_sensitive,
)

GOLDEN_PATH = pathlib.Path(__file__).parents[1] / "golden" / "timing_matrix.json"
SCHEMA = "repro.timing-golden/v1"

PRESETS = {
    "small": GPUConfig.small,
    "tiny": GPUConfig.tiny,
    "titan_v": GPUConfig.titan_v,
}


def _dab(scheduler: str) -> ArchSpec:
    return ArchSpec.make_dab(DABConfig(buffer_entries=64, scheduler=scheduler,
                                       fusion=True, coalescing=True),
                             f"dab-{scheduler}")


#: the seven architectures of the grid, plus single-cell variants.
ARCHES = {
    "baseline": ArchSpec.baseline(),
    "dab-gwat": _dab("gwat"),
    "dab-gtrr": _dab("gtrr"),
    "dab-gtar": _dab("gtar"),
    "dab-srr": _dab("srr"),
    "dab-warp": ArchSpec.make_dab(DABConfig.warp_level(), "dab-warp"),
    "gpudet": ArchSpec.make_gpudet(),
    "dab-gwat32": ArchSpec.make_dab(
        DABConfig(buffer_entries=32, scheduler="gwat"), "dab-gwat32"),
    # 32 unfused entries fill: the in-order policies' gate sleeps.
    "dab-srr32": ArchSpec.make_dab(
        DABConfig(buffer_entries=32, scheduler="srr"), "dab-srr32"),
    "dab-gtrr32": ArchSpec.make_dab(
        DABConfig(buffer_entries=32, scheduler="gtrr"), "dab-gtrr32"),
    "gpudet-q20": ArchSpec.make_gpudet(GPUDetConfig(quantum_instrs=20)),
}
GRID_ARCHES = ("baseline", "dab-gwat", "dab-gtrr", "dab-gtar", "dab-srr",
               "dab-warp", "gpudet")

_FENCE_PROG = assemble("""
    mov.f32 r_v, 1.0
    red.global.add.f32 [c_x], r_v
    membar.gl
    red.global.add.f32 [c_x], r_v
    exit
""")


def build_fence() -> Workload:
    """Two CTAs of 64 threads: ``red; membar.gl; red``.

    No shipped workload executes ``membar``; this kernel pins each
    architecture's fence release (baseline: memory settled; DAB: a
    flush drained the reds before it; GPUDet: next parallel mode).
    """
    mem = GlobalMemory()
    x = mem.alloc("x", 1, "f32")
    kernel = Kernel("fence", _FENCE_PROG, grid_dim=2, cta_dim=64,
                    params={"c_x": x})
    return Workload(name="fence", mem=mem, kernels=[kernel], outputs=["x"])


WORKLOADS = {
    "histogram": lambda: build_histogram(4096, bins=32),
    "atomic_sum": lambda: build_atomic_sum(2048),
    "bc_1k": lambda: build_bc(graph="1k", scale=32),
    "cnv2_1": lambda: build_conv("cnv2_1"),
    # On tiny, a scheduler holds only next-batch warps at their atomic:
    # the SRR/GTRR batch-gate sleep (SM._gate_sleeps).
    "cnv2_2": lambda: build_conv("cnv2_2"),
    "lock_tts": lambda: build_lock_sum("tts", n=64),
    # The drawn tuples of tests/property/test_prop_fastpath.py: on the
    # tiny preset (2 SMs x 8 slots) the first two retire and replace
    # CTAs mid-kernel; mc_barrier makes barrier arrival order
    # commit-relevant; order_sensitive is the floating-point order probe.
    "tiny_atomic_sum": lambda: build_atomic_sum(n=2048, cta_dim=128),
    "tiny_histogram": lambda: build_histogram(n=1024, bins=8, cta_dim=128),
    "mc_barrier": lambda: build_mc_barrier(n=128),
    "order_sensitive": lambda: build_order_sensitive(n=512, cta_dim=128),
    # The only cells that execute membar.
    "fence": build_fence,
}
SMALL_WORKLOADS = ("histogram", "atomic_sum", "bc_1k", "cnv2_1")
TINY_WORKLOADS = ("tiny_atomic_sum", "tiny_histogram", "mc_barrier",
                  "order_sensitive", "fence")

PLANS = {
    "hand": FaultPlan(11, FaultConfig(
        dram_burst_prob=0.2, dram_burst_len=6, dram_burst_extra=40,
        icnt_spike_prob=0.1, icnt_spike_max=20, reorder_prob=0.05,
        reorder_max_delay=12, stall_windows=2, stall_len=200,
    )),
    "sample12": FaultPlan.sample(12),
}


@dataclass(frozen=True)
class Cell:
    preset: str
    workload: str
    arch: str
    plan: Optional[str] = None

    @property
    def name(self) -> str:
        prefix = self.preset if self.plan is None else f"{self.preset}+{self.plan}"
        return f"{prefix}/{self.workload}/{self.arch}"


def _cells():
    cells = [Cell("small", w, a) for w in SMALL_WORKLOADS for a in GRID_ARCHES]
    cells += [Cell("tiny", w, a) for w in TINY_WORKLOADS for a in GRID_ARCHES]
    cells += [Cell("small", "atomic_sum", a, plan)
              for plan in PLANS for a in GRID_ARCHES]
    cells += [
        Cell("small", "lock_tts", "baseline"),
        Cell("small", "lock_tts", "gpudet"),
        Cell("small", "bc_1k", "dab-gwat32"),
        Cell("tiny", "tiny_histogram", "dab-srr32"),
        Cell("tiny", "tiny_histogram", "dab-gtrr32"),
        Cell("tiny", "tiny_atomic_sum", "dab-srr32"),
        Cell("tiny", "tiny_atomic_sum", "dab-gtrr32"),
        Cell("small", "atomic_sum", "gpudet-q20"),
        Cell("titan_v", "bc_1k", "gpudet"),
        Cell("tiny", "cnv2_2", "dab-srr"),
        Cell("tiny", "cnv2_2", "dab-gtrr"),
    ]
    return {c.name: c for c in cells}


CELLS: Dict[str, Cell] = _cells()


def run_cell(name: str, invariants: bool = True) -> SimResult:
    cell = CELLS[name]
    return run_workload(
        WORKLOADS[cell.workload], ARCHES[cell.arch],
        gpu_config=PRESETS[cell.preset](), seed=1,
        faults=PLANS[cell.plan] if cell.plan is not None else None,
        obs=ObsConfig(metrics=True, trace=True), record_state=True,
        invariants=invariants,
    )


def _sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def observables(res: SimResult) -> dict:
    """One run condensed to the fields a timing golden pins.

    Needs a run with metrics, tracing and ``record_state`` on.
    """
    md = res.metrics_dict()
    md.pop("host_profile")
    md["extra"].pop("invariant_checks", None)
    commits = sorted(map(str, json.loads(md["extra"]["red_commits"])))
    return {
        "cycles": res.cycles,
        "stalls": res.stalls.as_dict(),
        "epochs": md["metrics"]["gpu.run.epochs"]["value"],
        "gpudet_mode_cycles": dict(res.gpudet_mode_cycles),
        "mem_digest": res.mem_digest,
        "output_digest": res.extra["output_digest"],
        "trace_digest": md["trace"]["digest"],
        "commit_digest": _sha(commits),
        "metrics_digest": _sha(md),
    }


def load_golden() -> Dict[str, dict]:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())["cells"]


def store_golden(name: str, current: dict) -> None:
    """Rewrite one cell's entry (dropping cells no longer defined)."""
    cells = {k: v for k, v in load_golden().items() if k in CELLS}
    cells[name] = current
    doc = {"schema": SCHEMA, "cells": cells}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def drift_diff(golden: dict, current: dict) -> str:
    """Human-readable field-by-field drift between two cell entries."""
    lines = []
    for key in sorted(set(golden) | set(current)):
        old, new = golden.get(key, "<absent>"), current.get(key, "<absent>")
        if old == new:
            continue
        if isinstance(old, dict) and isinstance(new, dict):
            for sub in sorted(set(old) | set(new)):
                if old.get(sub) != new.get(sub):
                    lines.append(f"  {key}[{sub}]: {old.get(sub, '<absent>')}"
                                 f" -> {new.get(sub, '<absent>')}")
        else:
            lines.append(f"  {key}: {old} -> {new}")
    return "\n".join(lines) or "  (entries identical)"


def check_cell(name: str, request) -> dict:
    """Replay one cell armed and compare it with its golden entry.

    Under ``--update-golden`` the entry is rewritten instead.  Returns
    the replay's observables so callers can add their own assertions.
    """
    current = observables(run_cell(name))
    if request.config.getoption("--update-golden"):
        store_golden(name, current)
        return current
    golden = load_golden().get(name)
    assert golden is not None, (
        f"no timing golden for {name!r}; create it with "
        f"`python -m pytest tests/integration/test_timing_golden.py "
        f"--update-golden`"
    )
    assert golden == current, (
        f"timing cell {name!r} drifted from {GOLDEN_PATH}:\n"
        + drift_diff(golden, current)
        + "\n(if intentional, re-pin with --update-golden)"
    )
    return current
