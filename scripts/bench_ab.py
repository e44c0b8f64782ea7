#!/usr/bin/env python3
"""One-command A/B of the engine benchmark: this checkout against a git ref.

    python scripts/bench_ab.py REF --workload baseline_conv --pairs 10 --seed 5
    python scripts/bench_ab.py REF --pairs 5              # all four workloads
    python scripts/bench_ab.py REF --pairs 0 --opcodes    # opcode counts only

Exports two trees into a temporary directory with ``git archive`` (a
local operation: nothing is fetched): REF (the parent) and this
checkout's working tree, tracked and untracked files alike (the change;
:func:`worktree_id` writes it through a temporary index, so the real
index stays as it is).  Both sides thus run from equally built trees:
a run in place reads a slightly different ``peak_rss_mb`` than an
export of the same source.  It alternates
``benchmarks/engine/run.py --workload W --seed S --trace 0`` between the
two, ``--pairs`` times per workload, switching which side runs first
from pair to pair.
For each workload and each end-to-end metric of ``BENCHMARK.json`` it
reports both sides' medians and quartiles, the parent's quartile
spread, the median gap, the pairs the change won, and whether the
change is worse than the metric's bound.  Each run's completed rounds
are reported beside its peak RSS (``fig10_campaign``'s grows with them).

``--opcodes`` adds, per side, the interpreter opcodes per simulated
warp-instruction of one seed-1 round of each engine workload (after an
uncounted warm-up round), by module and by function.  They are counted
in a fresh interpreter with ``sys.settrace`` opcode events and a fixed
hash seed, so the count does not move with the host's load: it
resolves changes of a few percent that a handful of wall-clock pairs
cannot.

The report is a ``repro.bench_ab/v1`` JSON document (``--out``), which
names both sides' tree ids, plus a text summary.  Exit status: 0 every
run passed its output check, 1 some run failed it or could not run, 2
the A/B itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = "repro.bench_ab/v1"
ENGINE_WORKLOADS = ("dab_graph", "baseline_conv", "gpudet_graph")
WORKLOADS = ENGINE_WORKLOADS + ("fig10_campaign",)
#: functions listed per side and workload in the opcode report.
TOP_FUNCTIONS = 15


# ----------------------------------------------------------------------
# Opcode counting.
# ----------------------------------------------------------------------

def count_opcodes(fn: Callable[[], object]) -> Tuple[object, Dict]:
    """Run ``fn()`` with every new Python frame counting its opcode
    events; return its result and ``{code object: opcodes}``.

    The calling frame is not counted, nor is C code (numpy's kernels
    run inside one opcode of their caller).
    """
    counts: Dict = {}

    def local(frame, event, arg):
        if event == "opcode":
            code = frame.f_code
            counts[code] = counts.get(code, 0) + 1
        return local

    def enter(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(enter)
    try:
        result = fn()
    finally:
        sys.settrace(None)
    return result, counts


def module_of(filename: str) -> str:
    """A dotted module name for a code object's file: the path below a
    ``src`` or ``site-packages`` directory, else the file's stem."""
    path = Path(filename)
    parts = path.with_suffix("").parts
    for anchor in ("src", "site-packages"):
        if anchor in parts:
            k = len(parts) - 1 - parts[::-1].index(anchor)
            return ".".join(parts[k + 1:]) or path.stem
    return path.stem


def opcode_table(counts: Dict, instructions: int,
                 top: int = TOP_FUNCTIONS) -> dict:
    """Opcodes per simulated instruction: in total, by module and for
    the ``top`` functions (``module:qualname``)."""
    by_module: Dict[str, int] = {}
    by_function: Dict[str, int] = {}
    for code, n in counts.items():
        mod = module_of(code.co_filename)
        name = f"{mod}:{getattr(code, 'co_qualname', code.co_name)}"
        by_module[mod] = by_module.get(mod, 0) + n
        by_function[name] = by_function.get(name, 0) + n
    total = sum(by_module.values())

    def per(table, limit=None):
        items = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
        return {k: round(v / instructions, 2) for k, v in items[:limit]}

    return {"instructions": instructions, "opcodes": total,
            "per_instr": round(total / instructions, 2),
            "by_module": per(by_module), "top_functions": per(by_function, top)}


def engine_opcodes(workloads: List[str]) -> dict:
    """Opcode tables of one seed-1 round per engine workload, run in
    this process against the ``engine_bench`` on ``sys.path``.  Every
    counted run must pass its output check."""
    import engine_bench as eb

    expected = eb.load_expected()
    out = {}
    for name in workloads:
        cells = eb.ENGINE_WORKLOADS[name]

        def one_round():
            results = []
            for arch, wname in cells:
                res = eb.run_workload(eb.FACTORIES[wname], eb.ARCHS[arch],
                                      gpu_config=eb.GPUConfig.titan_v(),
                                      seed=1)
                key = eb.cell_key("titan_v", arch, wname)
                errors = eb.check_cell(expected, key, arch, 1,
                                       eb.outcome_of(res))
                if errors:
                    raise RuntimeError("; ".join(errors))
                results.append(res)
            return results

        one_round()  # warm-up: imports and decode caches
        results, counts = count_opcodes(one_round)
        out[name] = opcode_table(counts, sum(r.instructions for r in results))
    return out


def _opcodes_in(tree: Path, workloads: List[str]) -> dict:
    """:func:`engine_opcodes` in a fresh interpreter on ``tree``."""
    code = ("import json, sys; "
            f"sys.path[:0] = [{str(ROOT / 'scripts')!r}, "
            f"{str(tree / 'benchmarks' / 'engine')!r}]; "
            "import bench_ab; "
            f"print(json.dumps(bench_ab.engine_opcodes({workloads!r})))")
    env = _child_env()
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run([sys.executable, "-c", code], cwd=str(tree),
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"opcode count on {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# The two trees.
# ----------------------------------------------------------------------

def _git(*args: str, env: Optional[dict] = None) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True,
                          env=env).stdout.strip()


def worktree_id() -> str:
    """The git tree id of this checkout's working tree (what ``git add
    -A`` would stage), written through a temporary index file."""
    with tempfile.TemporaryDirectory(prefix="bench_ab-index-") as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        _git("add", "-A", env=env)
        return _git("write-tree", env=env)


# ----------------------------------------------------------------------
# Wall-clock pairs.
# ----------------------------------------------------------------------

def _child_env() -> dict:
    # The benchmark drops REPRO_* switches itself; PYTHONPATH would
    # point both trees at one simulator.
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def run_once(tree: Path, workload: str, seed: int, out_dir: Path) -> dict:
    """One untraced ``run.py`` of ``workload`` on ``tree`` (its default
    run length): its exit status, completed rounds, failed runs and
    end-to-end metrics."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(tree / "benchmarks" / "engine" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "0",
           "--out", str(out_dir)]
    proc = subprocess.run(cmd, cwd=str(tree), capture_output=True, text=True,
                          env=_child_env())
    run = {"exit": proc.returncode, "rounds": None, "attempted": 0,
           "failed": 0, "metrics": {}}
    result = out_dir / f"result-{workload}-seed{seed}.json"
    if proc.returncode in (0, 1) and result.exists():
        doc = json.loads(result.read_text())["workloads"][workload]
        run.update(rounds=doc["rounds"], attempted=doc["attempted"],
                   failed=doc["failed"],
                   metrics={k: m["value"] for k, m in doc["metrics"].items()})
    else:
        run["error"] = (proc.stderr.strip().splitlines() or ["no output"])[-1]
    return run


def _quartiles(xs: List[float]) -> Tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def compare(parent: List[float], change: List[float], better: str,
            bound: float) -> dict:
    """One metric over paired runs (``parent[i]`` with ``change[i]``)."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    gap = cm - pm
    spread = p3 - p1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    worse_frac = -sign * gap / pm if pm else 0.0
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3, "runs": parent},
        "change": {"median": cm, "q1": c1, "q3": c3, "runs": change},
        "parent_spread": spread,
        "median_gap": gap,
        "median_gap_frac": gap / pm if pm else 0.0,
        "wins": wins, "pairs": len(parent),
        # Better in the median by more than the parent's quartile spread.
        "gap_exceeds_spread": sign * gap > spread,
        "bound": bound,
        "worse_than_bound": worse_frac > bound,
    }


def ab_workload(trees: Dict[str, Path], workload: str, seed: int,
                pairs: int, scratch: Path, metrics: List[dict]) -> dict:
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            t0 = time.perf_counter()
            run = run_once(trees[side], workload, seed,
                           scratch / f"{workload}-{side}-{i}")
            run["first"] = side == order[0]
            runs[side].append(run)
            ips = run["metrics"].get("instr_per_s")
            print(f"  pair {i} {side:6s} exit {run['exit']} "
                  f"instr_per_s {ips if ips is None else round(ips)} "
                  f"rounds {run['rounds']} "
                  f"({time.perf_counter() - t0:.0f} s)", flush=True)
    ok = [i for i in range(pairs)
          if all(runs[s][i]["exit"] == 0 for s in runs)]
    table = {}
    for m in metrics:
        name = m["name"]
        table[name] = compare(
            [runs["parent"][i]["metrics"][name] for i in ok],
            [runs["change"][i]["metrics"][name] for i in ok],
            m["better"], m["bound"]) if ok else None
    return {
        "runs": runs,
        "failed_runs": sum(r["exit"] != 0 or r["failed"] > 0
                           for side in runs.values() for r in side),
        "output_check_failures": sum(r["failed"] for side in runs.values()
                                     for r in side),
        "metrics": table,
    }


def print_summary(doc: dict) -> None:
    for workload, res in doc["workloads"].items():
        print(f"== {workload}: {doc['pairs']} pair(s), "
              f"{res['failed_runs']} failed run(s)")
        for name, c in res["metrics"].items():
            if c is None:
                print(f"  {name}: no pair completed on both sides")
                continue
            p, ch = c["parent"], c["change"]
            verdict = "WORSE THAN BOUND" if c["worse_than_bound"] else "ok"
            print(f"  {name:12s} parent {p['median']:.6g} "
                  f"[{p['q1']:.6g}, {p['q3']:.6g}]  change {ch['median']:.6g} "
                  f"[{ch['q1']:.6g}, {ch['q3']:.6g}]  gap "
                  f"{100 * c['median_gap_frac']:+.1f}% "
                  f"(spread {c['parent_spread']:.4g}, beyond: "
                  f"{c['gap_exceeds_spread']})  won {c['wins']}/{c['pairs']}"
                  f"  bound {c['bound']:.0%}: {verdict}")
        for side in ("parent", "change"):
            pairs = [(r["metrics"].get("peak_rss_mb"), r["rounds"])
                     for r in res["runs"][side]]
            print(f"  {side} peak_rss_mb/rounds: " + ", ".join(
                f"{rss:.2f}/{n}" if rss is not None else f"-/{n}"
                for rss, n in pairs))
    for side, table in (doc.get("opcodes") or {}).items():
        for workload, t in table.items():
            print(f"== opcodes/instr {side} {workload}: {t['per_instr']} "
                  f"({t['instructions']} instructions)")
            for name, v in list(t["top_functions"].items())[:8]:
                print(f"  {v:10.2f}  {name}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("ref", help="git ref of the parent tree")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to compare (repeatable; default: all)")
    ap.add_argument("--pairs", type=int, default=5,
                    help="alternating pairs per workload (default 5)")
    ap.add_argument("--seed", type=int, default=1,
                    help="jitter seed of every run (default 1)")
    ap.add_argument("--opcodes", action="store_true",
                    help="add opcodes per instruction of the engine "
                         "workloads, per side")
    ap.add_argument("--out", default=str(ROOT / "benchmarks" / "engine" /
                                         "out" / "bench_ab.json"),
                    help="path of the repro.bench_ab/v1 report")
    args = ap.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]

    sys.path.insert(0, str(ROOT / "scripts"))
    from engine_diff import export_ref

    doc = {"schema": SCHEMA, "ref": args.ref, "seed": args.seed,
           "pairs": args.pairs, "workloads": {}}
    try:
        doc["trees"] = {"parent": _git("rev-parse", f"{args.ref}^{{tree}}"),
                        "change": worktree_id()}
        with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
            trees = {}
            for side, tree_id in doc["trees"].items():
                (Path(tmp) / side).mkdir()
                export_ref(tree_id, Path(tmp) / side)
                trees[side] = Path(tmp) / side / "tree"
            if args.opcodes:
                engine = [w for w in workloads if w in ENGINE_WORKLOADS]
                doc["opcodes"] = {side: _opcodes_in(tree, engine)
                                  for side, tree in trees.items()}
            for w in workloads if args.pairs > 0 else []:
                print(f"{w}: {args.pairs} pair(s) against {args.ref}",
                      flush=True)
                doc["workloads"][w] = ab_workload(
                    trees, w, args.seed, args.pairs, Path(tmp) / "out",
                    metrics)
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print_summary(doc)
    print(f"wrote {out}")
    return 1 if any(r["failed_runs"] for r in doc["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
