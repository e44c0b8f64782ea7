"""Hot-loop engine benchmark: event-driven issue vs per-cycle polling.

Runs the Fig 10 quick workload set under the three architectures at the
paper-scale GPU configuration (``GPUConfig.titan_v``: 80 SMs) under
both engines — the event-driven fastpath (default) and the
per-cycle polling reference (``REPRO_NO_FASTPATH=1``) — asserts the two
produce identical memory digests, cycle counts, and metrics, and
appends the timing ratios to ``benchmarks/results/BENCH_hotloop.json``.

The Fig 10 experiment tables themselves run on ``GPUConfig.small`` for
CI speed; the hot-loop cost being eliminated here (per-cycle scheduler
scans, flush-gate polling, GPUDet quantum scans) grows with SM count,
so the engine comparison is made at the scale the paper models.  Each
cell is timed on engine-only wall clock (``SimResult.sim_wall_s``:
inside ``GPU.run``, excluding workload build and result digesting,
which are identical for both engines), best of ``BENCH_REPEATS`` runs
— both engines are deterministic, so the minimum is the least-noise
estimate on a frequency-scaling host.  The headline is the DAB geomean
— DAB is the paper's architecture, and its flush controller is the
subsystem the polling loop re-examines every cycle (locally ~3.0x with
the SoA warp core, up from ~2.6x for the first event engine).  Baseline
cells run ~1.2-1.4x because their remaining cost is instruction
execution shared by both engines.  GPUDet cells ran ~1.1-1.3x because
both engines swept the whole GPU at every quantum boundary, a shared
cost the live-warp registry has since removed (DESIGN §12).  The
committed floors
(DAB 1.5x, baseline 1.1x) are set well under the local measurements to
tolerate noisy CI machines.

Runnable directly (``python benchmarks/bench_hotloop.py``) or under
pytest with the rest of the benchmark suite.
"""

import json
import math
import os
import pathlib

from repro.config import GPUConfig
from repro.core.dab import DABConfig
from repro.harness.runner import ArchSpec, run_workload
from repro.resilience.integrity import atomic_write_text
from repro.workloads.bc import build_bc
from repro.workloads.convolution import build_conv
from repro.workloads.pagerank import build_pagerank

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_hotloop.json"
BENCH_SCHEMA = "repro.bench_hotloop/v1"

#: Committed CI floor for the DAB geomean speedup (headline target: 3x;
#: see module docstring for the local measurement).
DAB_GEOMEAN_FLOOR = 1.5
#: Committed CI floor for the baseline-architecture geomean: the SoA
#: warp core must pay for itself even where there is no flush
#: controller to skip (the conservative floor tolerates noisy CI; see
#: the module docstring for the local measurement).
BASELINE_GEOMEAN_FLOOR = 1.1
#: Timed repetitions per (arch, workload, engine) cell; the reported
#: time is the best of N.  Single-shot timings on a loaded or
#: frequency-scaling host swing by tens of percent, and since both
#: engines are deterministic the minimum is the least-noise estimate.
BENCH_REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "2"))

# Fig 10 quick workload set (experiments.graph_workloads/conv_workloads
# with quick=True), built directly so the bench controls the GPU config.
WORKLOADS = [
    ("BC 1k", lambda: build_bc(graph="1k", scale=32)),
    ("BC FA", lambda: build_bc(graph="FA", scale=32)),
    ("PRK coA", lambda: build_pagerank(graph="coA", scale=2048,
                                       iterations=1)),
    ("cnv2_1", lambda: build_conv("cnv2_1")),
    ("cnv2_2", lambda: build_conv("cnv2_2")),
]

ARCHES = [
    ("baseline", ArchSpec.baseline()),
    ("DAB", ArchSpec.make_dab(
        DABConfig(buffer_entries=64, scheduler="gwat", fusion=True,
                  coalescing=True), "DAB")),
    ("GPUDet", ArchSpec.make_gpudet()),
]


def _run_cell(factory, arch, fastpath):
    prev = os.environ.get("REPRO_NO_FASTPATH")
    if fastpath:
        os.environ.pop("REPRO_NO_FASTPATH", None)
    else:
        os.environ["REPRO_NO_FASTPATH"] = "1"
    try:
        best = math.inf
        for _ in range(BENCH_REPEATS):
            res = run_workload(factory, arch,
                               gpu_config=GPUConfig.titan_v(), seed=1)
            # Engine-only wall time: excludes workload construction and
            # result digesting, which are identical for both engines and
            # would only dilute the comparison toward 1x.
            best = min(best, res.sim_wall_s)
    finally:
        if prev is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = prev
    metrics = res.metrics_dict()
    metrics.pop("host_profile", None)
    return best, {"mem_digest": res.mem_digest, "cycles": res.cycles,
                  "metrics": metrics}


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_hotloop():
    cells = []
    for aname, arch in ARCHES:
        for wname, factory in WORKLOADS:
            t_fast, out_fast = _run_cell(factory, arch, fastpath=True)
            t_poll, out_poll = _run_cell(factory, arch, fastpath=False)
            if out_fast != out_poll:
                raise AssertionError(
                    f"engine divergence on {aname}/{wname}: "
                    f"fast={out_fast['mem_digest']} "
                    f"poll={out_poll['mem_digest']}"
                )
            cells.append({
                "arch": aname,
                "workload": wname,
                "poll_s": round(t_poll, 4),
                "fast_s": round(t_fast, 4),
                "speedup": round(t_poll / t_fast, 3),
            })
            print(f"{aname:9s} {wname:8s} poll={t_poll:6.3f}s "
                  f"fast={t_fast:6.3f}s  {t_poll / t_fast:5.2f}x")
    geomeans = {
        aname: round(_geomean([c["speedup"] for c in cells
                               if c["arch"] == aname]), 3)
        for aname, _ in ARCHES
    }
    for aname, gm in geomeans.items():
        print(f"geomean {aname}: {gm:.2f}x")
    return {
        "gpu_config": "titan_v",
        "cells": cells,
        "geomean": geomeans,
        "headline_dab_geomean": geomeans["DAB"],
    }


def _append_run(entry):
    doc = {"schema": BENCH_SCHEMA, "runs": []}
    if BENCH_PATH.exists():
        try:
            prev = json.loads(BENCH_PATH.read_text())
            if prev.get("schema") == BENCH_SCHEMA:
                doc = prev
        except ValueError:
            pass  # corrupt history: start a fresh trajectory
    doc["runs"].append(entry)
    RESULTS_DIR.mkdir(exist_ok=True)
    # write-temp-then-rename: a crash mid-emit must never leave a torn
    # BENCH file that loses the whole accumulated trajectory.
    atomic_write_text(BENCH_PATH,
                      json.dumps(doc, indent=2, sort_keys=True) + "\n")
    # Mirror the entry into the persistent run database so the campaign
    # dashboard plots the trajectory; the JSON file stays the canonical
    # emit and a db hiccup must never fail the benchmark.
    try:
        from repro.campaign.rundb import RunDB

        with RunDB(RESULTS_DIR / "runs.db") as db:
            db.record_bench("hotloop", len(doc["runs"]) - 1, entry)
    except Exception as e:  # noqa: BLE001 - telemetry only
        print(f"warning: run-db append skipped ({e})")


def test_hotloop_speed():
    entry = run_hotloop()
    _append_run(entry)
    assert entry["headline_dab_geomean"] >= DAB_GEOMEAN_FLOOR
    assert entry["geomean"]["baseline"] >= BASELINE_GEOMEAN_FLOOR
    # Never a pessimization: every cell within noise of the old engine.
    for c in entry["cells"]:
        assert c["speedup"] >= 0.8, c


if __name__ == "__main__":
    test_hotloop_speed()
    print(f"ok: wrote {BENCH_PATH}")
