#!/usr/bin/env python3
"""Differential engine grid: this checkout against a git ref.

    python scripts/engine_diff.py REF                 # the whole grid
    python scripts/engine_diff.py HEAD --cells tiny/fence/dab-srr
    python scripts/engine_diff.py REF --list          # cell names only

Exports ``git archive REF`` into a temporary directory (a local
operation: nothing is fetched), runs one grid of simulations on both
trees and compares each cell's observables: cycles, the stall
breakdown, epochs, GPUDet mode cycles, and the memory, output, trace,
commit and metrics digests (``observables`` of
``tests/integration/timing_matrix.py``).  Every run has all invariants
armed.  The first differing field of each drifting cell is printed;
the exit status is 1 on any drift, 0 when every cell matches.

The grid:

* every cell of the golden timing matrix (seed 1);
* a multi-batch kernel (``tiny_atomic_sum``: CTAs retire and are
  replaced mid-kernel), the fence kernel and PageRank, on the ``tiny``
  and ``small`` presets, seeds 1 and 2, under baseline, GPUDet, the
  five policies × {scheduler-level 32 entries, scheduler-level 64
  entries with fusion and coalescing, warp-level 32 entries}, and
  GWAT-64-AF-Coal under NR, NR-OF and NR-OF-CIF;
* the same three kernels and presets under both golden fault plans
  (seed 1) on baseline, GPUDet, GWAT-64-AF-Coal and SRR-32.

Both trees run this file's grid: the simulator (``repro``) comes from
each tree's ``src/``, the cell definitions from this checkout, so the
ref must accept the same ``run_workload`` call.  ``--jobs`` worker
processes run at a time (default 2).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]

#: the extra kernels: multi-batch, fence, PageRank.
EXTRA_WORKLOADS = ("tiny_atomic_sum", "fence", "pagerank")
EXTRA_PRESETS = ("tiny", "small")
POLICIES = ("gto", "srr", "gtrr", "gtar", "gwat")
BUFFERS = {
    "sched32": dict(buffer_entries=32),
    "sched64-af-coal": dict(buffer_entries=64, fusion=True, coalescing=True),
    "warp32": dict(warp=True, buffer_entries=32),
}
RELAXED = {
    "nr": dict(relax_no_reorder=True),
    "nr-of": dict(relax_no_reorder=True, relax_overlap_flush=True),
    "nr-of-cif": dict(relax_no_reorder=True, relax_overlap_flush=True,
                      relax_cluster_flush=True),
}
#: DABConfig fields per DAB arch key (``warp`` selects warp-level
#: buffers).
DAB_ARCHS = {f"dab-{p}-{b}": dict(scheduler=p, **f)
             for p in POLICIES for b, f in BUFFERS.items()}
DAB_ARCHS.update({f"dab-gwat-sched64-af-coal-{r}": dict(
    scheduler="gwat", **BUFFERS["sched64-af-coal"], **f)
    for r, f in RELAXED.items()})
SEEDS = (1, 2)
PLAN_ARCHS = ("baseline", "gpudet", "dab-gwat-sched64-af-coal",
              "dab-srr-sched32")


def grid() -> List[str]:
    """Every cell name, timing-matrix cells first."""
    from tests.integration import timing_matrix as tm

    archs = ["baseline", "gpudet", *DAB_ARCHS]
    names = list(tm.CELLS)
    for preset in EXTRA_PRESETS:
        for wl in EXTRA_WORKLOADS:
            names += [f"{preset}/{wl}/{a}/s{seed}"
                      for a in archs for seed in SEEDS]
            names += [f"{preset}+{plan}/{wl}/{a}/s1"
                      for plan in tm.PLANS for a in PLAN_ARCHS]
    return names


def _arch(key: str):
    """The ArchSpec an extra cell's arch key names."""
    from repro.core.dab import BufferLevel, DABConfig
    from repro.harness.runner import ArchSpec

    if key == "baseline":
        return ArchSpec.baseline()
    if key == "gpudet":
        return ArchSpec.make_gpudet()
    fields = dict(DAB_ARCHS[key])
    if fields.pop("warp", False):
        fields["buffer_level"] = BufferLevel.WARP
    return ArchSpec.make_dab(DABConfig(**fields), key)


def run_cell(name: str) -> dict:
    """One cell's observables (this process's ``repro``)."""
    from repro.harness.runner import run_workload
    from repro.obs import ObsConfig
    from repro.workloads.pagerank import build_pagerank
    from tests.integration import timing_matrix as tm

    if name in tm.CELLS:
        return tm.observables(tm.run_cell(name))
    where, wl, arch, seed = name.split("/")
    preset, _, plan = where.partition("+")
    factory = (tm.WORKLOADS[wl] if wl != "pagerank" else
               lambda: build_pagerank(graph="coA", scale=4096, iterations=1))
    res = run_workload(
        factory, _arch(arch), gpu_config=tm.PRESETS[preset](),
        seed=int(seed[1:]), faults=tm.PLANS[plan] if plan else None,
        obs=ObsConfig(metrics=True, trace=True), record_state=True,
        invariants=True,
    )
    return tm.observables(res)


def worker() -> None:
    """Run the cell names read from stdin; print name -> observables
    (or the run's error) as one JSON object."""
    out = {}
    for name in json.load(sys.stdin):
        try:
            out[name] = run_cell(name)
        except Exception as e:  # a failed run is a result to compare
            out[name] = {"error": f"{type(e).__name__}: {e}"}
    json.dump(out, sys.stdout)


def _run_tree(tree: Path, names: List[str]) -> Dict[str, dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(tree / "src"), str(ROOT)])
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker"],
        input=json.dumps(names), capture_output=True, text=True, env=env,
        check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker on {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def export_ref(ref: str, dest: Path) -> None:
    """``git archive ref`` unpacked into ``dest / "tree"``."""
    tar = dest / "ref.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                    "-o", str(tar), ref], check=True)
    tree = dest / "tree"
    with tarfile.open(tar) as tf:
        if hasattr(tarfile, "data_filter"):
            tf.extractall(tree, filter="data")
        else:  # pragma: no cover - Pythons without extraction filters
            tf.extractall(tree)


def first_drift(ref: dict, cur: dict) -> str:
    """The first differing field of two cells' observables (in their
    order: cycles, stalls, epochs, GPUDet modes, digests), or ""."""
    for key in [*cur, *(k for k in ref if k not in cur)]:
        old, new = ref.get(key, "<absent>"), cur.get(key, "<absent>")
        if old == new:
            continue
        if isinstance(old, dict) and isinstance(new, dict):
            sub = next(k for k in sorted(set(old) | set(new))
                       if old.get(k) != new.get(k))
            return (f"{key}[{sub}]: {old.get(sub, '<absent>')} -> "
                    f"{new.get(sub, '<absent>')}")
        return f"{key}: {old} -> {new}"
    return ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref", nargs="?", help="git ref to compare against")
    ap.add_argument("--cells", default="",
                    help="comma-separated cell names (default: all)")
    ap.add_argument("--jobs", type=int, default=2,
                    help="worker processes at a time (default 2)")
    ap.add_argument("--list", action="store_true",
                    help="print the cell names and exit")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker()
        return 0
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    names = grid()
    if args.cells:
        wanted = args.cells.split(",")
        unknown = sorted(set(wanted) - set(names))
        if unknown:
            ap.error(f"unknown cells: {', '.join(unknown)}")
        names = [n for n in names if n in wanted]
    if args.list:
        print("\n".join(names))
        return 0
    if not args.ref:
        ap.error("a git ref is required")
    jobs = max(1, args.jobs)
    # Each tree's cells in ``jobs`` interleaved chunks, so both trees
    # progress together.
    chunks = [names[k::jobs] for k in range(jobs)]
    with tempfile.TemporaryDirectory(prefix="engine_diff-") as tmp:
        export_ref(args.ref, Path(tmp))
        trees = {"ref": Path(tmp) / "tree", "cur": ROOT}
        tasks = [(side, chunk) for chunk in chunks if chunk
                 for side in trees]
        got: Dict[str, Dict[str, dict]] = {"ref": {}, "cur": {}}
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [(side, pool.submit(_run_tree, trees[side], chunk))
                       for side, chunk in tasks]
            for side, fut in futures:
                got[side].update(fut.result())
    drifted = failed = 0
    for name in names:
        ref, cur = got["ref"][name], got["cur"][name]
        drift = first_drift(ref, cur)
        if drift:
            drifted += 1
            print(f"DRIFT {name}: {drift}")
        elif "error" in cur:
            failed += 1
            print(f"FAILED on both trees {name}: {cur['error']}")
    print(f"{len(names)} cells against {args.ref}: {drifted} drifted, "
          f"{failed} failed alike on both trees")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
