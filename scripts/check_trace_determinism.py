#!/usr/bin/env python
"""CI gate: two identical traced runs must produce bitwise-identical JSONL.

Runs the same (workload, arch, seed) twice with event tracing enabled,
writes both traces, and compares the files byte-for-byte plus their
SHA-256 digests.  Any divergence means a nondeterministic quantity
(host time, ``id()``, unordered iteration) leaked into the simulator or
the trace payloads — the bug class this repo exists to eliminate.

Usage::

    PYTHONPATH=src python scripts/check_trace_determinism.py
    PYTHONPATH=src python scripts/check_trace_determinism.py \
        --workload microbench:256 --arch baseline --seed 7

Exit status: 0 identical, 1 diverged.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.cli import parse_arch, parse_workload_ref
from repro.config import GPU_PRESETS
from repro.harness.runner import run_workload
from repro.obs import ObsConfig


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="microbench:256")
    p.add_argument("--arch", default="dab",
                   choices=["baseline", "dab", "gpudet"])
    p.add_argument("--preset", default="tiny", choices=list(GPU_PRESETS))
    p.add_argument("--seed", type=int, default=1)
    # parse_arch reads the full `run` flag set; supply the defaults.
    p.add_argument("--scheduler", default="gwat",
                   choices=["srr", "gtrr", "gtar", "gwat"])
    p.add_argument("--entries", type=int, default=64)
    p.add_argument("--fusion", action="store_true")
    p.add_argument("--coalescing", action="store_true")
    p.add_argument("--offset", action="store_true")
    p.add_argument("--warp-level", action="store_true")
    p.add_argument("--quantum", type=int, default=200)
    args = p.parse_args(argv)

    factory = parse_workload_ref(args.workload)
    arch = parse_arch(args)
    config = GPU_PRESETS[args.preset]()
    obs = ObsConfig(trace=True, trace_capacity=0)

    digests, paths = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i in (1, 2):
            res = run_workload(factory, arch, gpu_config=config,
                               seed=args.seed, obs=obs)
            path = Path(tmp) / f"trace{i}.jsonl"
            res.obs.tracer.write_jsonl(str(path))
            digests.append(res.obs.tracer.digest())
            paths.append(path)
            print(f"run {i}: {len(res.obs.tracer)} events, "
                  f"digest {digests[-1][:16]}…")
        same_bytes = paths[0].read_bytes() == paths[1].read_bytes()

    if digests[0] == digests[1] and same_bytes:
        print(f"OK: {args.workload} on {arch.label} traces are "
              "bitwise-identical across runs")
        return 0
    print(f"FAIL: {args.workload} on {arch.label} traces diverged "
          f"({digests[0][:16]}… vs {digests[1][:16]}…)", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
