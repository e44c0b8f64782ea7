"""Engine benchmark: absolute simulator cost on four workloads.

    python3 benchmarks/engine/run.py --seed 1              # end to end
    python3 benchmarks/engine/run.py --seed 1 --trace      # and per layer
    python3 benchmarks/engine/run.py --workload dab_graph --seed 3 \\
        --seconds 20 --trace 0                             # one workload
    python3 benchmarks/engine/run.py --update-expected     # re-capture

Each workload runs in its own fresh subprocess (``engine_bench.py``) as
a closed loop: warm-up, an untraced timed loop, then with ``--trace``
(or ``--trace 1``) a traced pass that charges host time to simulator
layers.
Set-up time is the median of several fresh interpreters
(``setup_probe.py``).  Host times in the bounded metrics are scaled to
the reference host's speed (``host_speed.py``).  Every run is checked
against ``expected.json``.

The report names every metric with its unit and says whether it is host
time or simulated.  One result JSON goes to ``--out``; the last stdout
line is ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
Exit status: 0 all runs correct, 1 some run failed its check, 2 the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

try:
    import engine_bench as eb  # imports repro from this checkout's src/
except ImportError as e:
    print(f"error: cannot import the simulator: {e}", file=sys.stderr)
    raise SystemExit(2)
from host_speed import HostSpeed  # noqa: E402

RESULT_SCHEMA = "repro.bench_engine/v1"
DEFAULT_SECONDS = 15
#: Fresh interpreters timed per workload for setup_s.
SETUP_PROBES = 9

#: End-to-end metrics (the ``--trace 0`` result line), with units.
END_TO_END = {
    "instr_per_s": "warp-instr/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Reported beside the end-to-end metrics, but not in that result line
#: (README.md, "End-to-end metrics", says why for each).
EXTRA = {"loop_instr_per_s": "warp-instr/s", "host_slowdown": "x",
         "us_per_instr_p50": "us", "us_per_instr_p90": "us",
         "replay_ms_per_job": "ms/job", "sim_cycles": "cycles",
         "failed_frac": "fraction"}

_LAYER_UNITS = {
    "sim.gpu.events": "count",
    "sim.gpu.cycles_per_instr": "cycles/instr",
    "sim.dispatcher.place_yield": "CTAs/call",
    "sim.sm.issue_yield": "instr/call",
    "sim.sm.det_stall_frac": "fraction",
    "core.atomic_buffer.fused_atomics": "count",
    "core.flush.trigger_yield": "fraction",
    "core.flush.flushes": "count",
    "gpudet.tick_yield": "fraction",
    "interconnect.packets": "count",
    "interconnect.queue_delay_cycles": "cycles",
    "harness.sweep.cache_hit_ratio": "fraction",
    "trace_overhead_frac": "fraction",
    "bench.traced_ns_per_instr": "ns/instr",
    "bench.unattributed_ns_per_instr": "ns/instr",
}
_SUFFIX_UNITS = {".self_ns_per_instr": "ns/instr", ".self_ms_per_job": "ms/job",
                 ".calls": "count"}

#: Simulated quantities; every other number is measured on the host.
SIMULATED = {"sim_cycles", "sim.gpu.cycles_per_instr", "sim.sm.det_stall_frac",
             "core.atomic_buffer.fused_atomics", "core.flush.flushes",
             "interconnect.packets", "interconnect.queue_delay_cycles"}
_HOST_TIME_UNITS = {"s", "ms/job", "us", "ns/instr", "warp-instr/s"}


def unit_of(name: str) -> str:
    for table in (END_TO_END, EXTRA, _LAYER_UNITS):
        if name in table:
            return table[name]
    for suffix, unit in _SUFFIX_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for metric {name!r}")


def kind_of(name: str) -> str:
    if name in SIMULATED:
        return "simulated"
    return "host time" if unit_of(name) in _HOST_TIME_UNITS else "host"


def per_layer_names() -> list:
    """Per-layer metrics (the ``--trace 1`` result line), in order."""
    names = []
    for layer in eb.layer_trace.ENGINE_LAYERS:
        names += [f"{layer}.self_ns_per_instr", f"{layer}.calls"]
    for layer in eb.layer_trace.CAMPAIGN_LAYERS:
        names += [f"{layer}.self_ms_per_job", f"{layer}.calls"]
    return names + list(_LAYER_UNITS) + ["replay_ms_per_job", "sim_cycles"]


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed output check)."""


def _child_env() -> dict:
    # Simulator switches (REPRO_NO_FASTPATH, sweep defaults, ...) would
    # change what is measured: the benchmark runs with none of them set.
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def _last_line(proc: subprocess.CompletedProcess, what: str) -> str:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{what} exited with {proc.returncode}")
    return lines[-1]


def setup_seconds(workload: str, probes: int = SETUP_PROBES) -> tuple:
    """Set-up times of ``probes`` fresh interpreters, one after another,
    in host seconds and scaled to reference-host seconds."""
    speed = HostSpeed()
    speed.start()
    host, scaled = [], []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            stdout=subprocess.PIPE, text=True, env=_child_env(), timeout=60)
        host.append(float(_last_line(proc, f"setup probe for {workload}")))
        scaled.append(speed.mark(host[-1]))
    return host, scaled


def bench_workload(workload: str, seed: int, seconds: float, trace: bool,
                   out_dir) -> dict:
    """Measure one workload in a fresh subprocess; returns its result."""
    setup = setup_seconds(workload)
    proc = subprocess.run(
        [sys.executable, str(HERE / "engine_bench.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(int(trace)),
         "--out", str(out_dir)],
        stdout=subprocess.PIPE, text=True, env=_child_env(),
        timeout=4 * seconds + 60)
    return assemble(json.loads(_last_line(proc, f"workload {workload}")),
                    setup)


def assemble(doc: dict, setup: tuple) -> dict:
    """Label one workload's measurements (from engine_bench.measure) and
    its set-up samples (from setup_seconds) with units and kinds."""
    host, scaled = setup
    values = {name: (v, n) for name, (v, n) in doc["metrics"].items()}
    values["setup_s"] = (statistics.median(scaled), len(scaled))
    values["failed_frac"] = (doc["failed"] / doc["attempted"],
                             doc["attempted"])
    metrics = {name: {"value": v, "unit": unit_of(name), "n": n,
                      "kind": kind_of(name)}
               for name, (v, n) in values.items()}
    layers = {name: {"value": v, "unit": unit_of(name), "kind": kind_of(name)}
              for name, v in doc.get("trace", {}).items()}
    for name in ("replay_ms_per_job", "sim_cycles"):
        if layers:
            layers[name] = {k: metrics[name][k]
                            for k in ("value", "unit", "kind")}
    return {"rounds": doc["rounds"], "attempted": doc["attempted"],
            "failed": doc["failed"], "errors": doc["errors"],
            "setup_host_s": host, "setup_scaled_s": scaled,
            "metrics": metrics, "layers": layers}


def host_fingerprint(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    head = None
    if (eb.ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(eb.ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, text=True)
        head = proc.stdout.strip() or None
    from repro.harness.sweep import code_fingerprint

    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_head": head, "code_fingerprint": code_fingerprint(),
            "seed": seed}


def print_report(results: dict) -> None:
    for workload, res in results.items():
        print(f"== {workload}: {res['rounds']} timed round(s), "
              f"{res['failed']}/{res['attempted']} runs failed")
        for section in ("metrics", "layers"):
            for name, m in res[section].items():
                n = f"  n={m['n']}" if "n" in m else ""
                print(f"  {name:38s} {m['value']:>16.6g} {m['unit']:13s} "
                      f"[{m['kind']}]{n}")
        for err in res["errors"]:
            print(f"  FAILED: {err}")


def result_line(results: dict, trace: bool) -> dict:
    names = per_layer_names() if trace else list(END_TO_END)
    single = len(results) == 1
    metrics = {}
    for workload, res in results.items():
        table = res["layers"] if trace else res["metrics"]
        for name in names:
            key = name if single else f"{workload}/{name}"
            metrics[key] = {"value": table[name]["value"],
                            "unit": table[name]["unit"]}
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": failed, "metrics": metrics}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=eb.WORKLOADS,
                    help="workload to run (repeatable; default: all four)")
    ap.add_argument("--seed", type=int, default=1,
                    help="jitter seed for every run (default 1)")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="length of each timed loop (default %(default)s)")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                    default=0, help="add the traced per-layer pass "
                                    "(--trace or --trace 1; default off)")
    ap.add_argument("--out", default=str(eb.DEFAULT_OUT),
                    help="directory for the result JSON and span files")
    ap.add_argument("--update-expected", action="store_true",
                    help="re-capture expected.json at seed 1 and exit")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.update_expected:
        doc = {"schema": "repro.bench_engine.expected/v1", "seed": 1,
               "cells": eb.capture_expected()}
        eb.EXPECTED_PATH.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {eb.EXPECTED_PATH} ({len(doc['cells'])} cells)")
        return 0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workloads = args.workload or eb.WORKLOADS
    trace = bool(args.trace)
    try:
        results = {w: bench_workload(w, args.seed, args.seconds, trace, out)
                   for w in workloads}
    except (BenchError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    doc = {"schema": RESULT_SCHEMA, "host": host_fingerprint(args.seed),
           "seconds": args.seconds, "trace": trace, "workloads": results}
    tag = workloads[0] if len(workloads) == 1 else "all"
    path = out / f"result-{tag}-seed{args.seed}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print_report(results)
    print(f"wrote {path}")
    line = result_line(results, trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
