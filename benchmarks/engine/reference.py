"""Measure two full sets of the benchmark and write ``reference.json``.

    python3 benchmarks/engine/reference.py [--out reference.json]

A set runs every workload once per seed (seeds 1..10), each as its own
``run.py --workload W --seed S --trace 0`` invocation, exactly as a
regression check would.  For each end-to-end metric the file records,
per set, the median, the quartiles (``statistics.quantiles(n=4)``), the
spread between the quartiles as a share of the median, and the gap
between the two sets' medians; ``loop_instr_per_s`` and
``host_slowdown`` are recorded the same way, without a bound.  It is the
benchmark's first trajectory point; about 17 minutes per set on a 2-core
host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"
SETS = 2
SEEDS = range(1, 11)
#: Recorded beside the end-to-end metrics: the throughput over every run,
#: and the host slowdown that instr_per_s is scaled by.
TRACKED = ("loop_instr_per_s", "host_slowdown")


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread_frac": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(HERE / "reference.json"))
    args = ap.parse_args(argv)

    bench = json.loads(BENCHMARK.read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = list(bounds) + list(TRACKED)
    host = None
    sets = []
    for s in range(SETS):
        values = {w: {m: [] for m in names} for w in workloads}
        for seed in SEEDS:
            for w in workloads:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                       "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                if proc.returncode != 0 or not line["correct"]:
                    print(proc.stdout, file=sys.stderr)
                    raise SystemExit(f"set {s + 1}: {w} seed {seed} failed")
                result = json.loads((HERE / "out" / f"result-{w}-seed{seed}.json")
                                    .read_text())
                host = host or result["host"]
                metrics = result["workloads"][w]["metrics"]
                for m in names:
                    values[w][m].append(metrics[m]["value"])
                print(f"set {s + 1} seed {seed} {w}: " + ", ".join(
                    f"{m}={metrics[m]['value']:.6g}" for m in names),
                    flush=True)
        sets.append(values)

    table = {}
    for w in workloads:
        table[w] = {}
        for m in names:
            first, second = (summarize(v[w][m]) for v in sets)
            table[w][m] = {
                "unit": run.unit_of(m), "bound": bounds.get(m, {}).get("bound"),
                "sets": [first, second],
                "gap_frac": (second["median"] - first["median"])
                / first["median"],
            }
    doc = {"schema": "repro.bench_engine.reference/v1", "host": host,
           "run_seconds": bench["run_seconds"],
           "seeds": list(SEEDS), "workloads": table}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    for w, metrics in table.items():
        for m, r in metrics.items():
            spreads = ", ".join(f"{p['spread_frac']:.3f}" for p in r["sets"])
            print(f"{w:15s} {m:18s} bound {r['bound']}  "
                  f"spread {spreads}  gap {r['gap_frac']:+.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
