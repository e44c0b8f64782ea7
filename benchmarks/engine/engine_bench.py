"""Closed-loop simulator benchmark: workloads, timed loops, output checks.

Imported, :func:`measure` is the library entry point: it runs one
workload in the calling process and returns its measurements.  Run as a
script (``python3 engine_bench.py --workload NAME ...``) it does the same
in a fresh process and prints the document as its last stdout line;
``run.py`` spawns it once per workload.

Every run is checked against ``expected.json`` (see :func:`check_cell`).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if Path(repro.__file__).resolve().parents[1] != SRC:
    raise ImportError(f"repro was imported from {repro.__file__}, "
                      f"not from this checkout's {SRC}")

import repro.campaign.html as campaign_html  # noqa: E402
import repro.campaign.spec as campaign_spec  # noqa: E402
from repro.campaign.rundb import RunDB  # noqa: E402
from repro.campaign.runner import run_campaign  # noqa: E402
from repro.config import GPUConfig  # noqa: E402
from repro.core.dab import DABConfig  # noqa: E402
from repro.harness.runner import ArchSpec, run_workload  # noqa: E402
import repro.harness.sweep as sweep  # noqa: E402
from repro.sim.results import SimResult, StallBreakdown  # noqa: E402
from repro.workloads.bc import build_bc  # noqa: E402
from repro.workloads.convolution import build_conv  # noqa: E402
from repro.workloads.pagerank import build_pagerank  # noqa: E402

import layer_trace  # noqa: E402
from host_speed import HostSpeed  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"
DEFAULT_OUT = HERE / "out"

# The Fig 10 quick workload set with builder-default inputs (graph seed
# 42, conv seed 7), so instruction counts do not depend on --seed.
FACTORIES: Dict[str, Callable] = {
    "BC 1k": lambda: build_bc(graph="1k", scale=32),
    "BC FA": lambda: build_bc(graph="FA", scale=32),
    "PRK coA": lambda: build_pagerank(graph="coA", scale=2048, iterations=1),
    "cnv2_1": lambda: build_conv("cnv2_1"),
    "cnv2_2": lambda: build_conv("cnv2_2"),
}

ARCHS: Dict[str, ArchSpec] = {
    "baseline": ArchSpec.baseline(),
    "DAB": ArchSpec.make_dab(
        DABConfig(buffer_entries=64, scheduler="gwat", fusion=True,
                  coalescing=True), "DAB"),
    "GPUDet": ArchSpec.make_gpudet(),
}

#: Architectures whose output digest must not depend on the seed.
DETERMINISTIC = ("DAB", "GPUDet")

#: Engine workloads: (arch, workload) cells run at TITAN V scale.  Each
#: stresses different layers; see README.md for why each was chosen.
ENGINE_WORKLOADS: Dict[str, List[tuple]] = {
    "dab_graph": [("DAB", "BC 1k"), ("DAB", "BC FA"), ("DAB", "PRK coA")],
    "baseline_conv": [("baseline", "cnv2_1"), ("baseline", "cnv2_2")],
    "gpudet_graph": [("GPUDet", "BC 1k"), ("GPUDet", "PRK coA")],
}
CAMPAIGN = "fig10_campaign"
WORKLOADS = list(ENGINE_WORKLOADS) + [CAMPAIGN]

#: Warm replays after each cold campaign pass.
WARM_REPLAYS = 5
#: Sweep jobs for the campaign.  1 is the ``repro campaign run`` default
#: (the sweep then runs in-process): the workload's load stays in one
#: process, and the traced pass reaches the simulator layers too.
CAMPAIGN_JOBS = 1
#: Traced rounds per workload (after the untraced timed loop).
TRACE_ROUNDS = {CAMPAIGN: 1, **{name: 3 for name in ENGINE_WORKLOADS}}


def campaign_doc(seed: int) -> dict:
    """The fig10_quick campaign matrix (examples/campaigns/fig10_quick.yaml).

    Held here rather than read from the example so that editing the
    example never changes what the benchmark measures.
    """
    return {
        "schema": "repro.campaign/v1",
        "campaign": "fig10_quick",
        "defaults": {"preset": "small", "seeds": [seed]},
        "figures": [{
            "name": "fig10",
            "title": "Fig 10: DAB and GPUDet slowdown vs baseline (quick set)",
            "normalize": "baseline",
            "workloads": [
                {"name": "BC 1k", "factory": "bc", "args": ["1k", 32]},
                {"name": "BC FA", "factory": "bc", "args": ["FA", 32]},
                {"name": "PRK coA", "factory": "pagerank",
                 "args": ["coA", 2048], "kwargs": {"iterations": 1}},
                {"name": "cnv2_1", "factory": "conv", "args": ["cnv2_1"]},
                {"name": "cnv2_2", "factory": "conv", "args": ["cnv2_2"]},
            ],
            "archs": [
                {"name": "baseline", "kind": "baseline"},
                {"name": "DAB", "kind": "dab",
                 "dab": {"scheduler": "gwat", "buffer_entries": 64,
                         "fusion": True, "coalescing": True}},
                {"name": "GPUDet", "kind": "gpudet"},
            ],
        }],
    }


def cell_key(preset: str, arch: str, workload: str) -> str:
    return f"{preset}/{arch}/{workload}"


def load_expected(path=EXPECTED_PATH) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))["cells"]


# ----------------------------------------------------------------------
# Output checks.
# ----------------------------------------------------------------------

def check_cell(expected: dict, key: str, arch: str, seed: int,
               outcome: dict) -> List[str]:
    """Mismatches of one run against its expectation (empty = correct).

    At any seed the instruction count must match, and so must the output
    digest of a deterministic architecture.  At seed 1, the seed the
    expectations were captured at, cycles and memory digest must match
    exactly too.
    """
    exp = expected.get(key)
    if exp is None:
        return [f"{key}: no expectation recorded"]
    fields = ["instructions"]
    if arch in DETERMINISTIC:
        fields.append("output_digest")
    if seed == 1:
        fields += ["cycles", "mem_digest"]
    return [f"{key} seed {seed}: {f} {outcome[f]!r} != expected {exp[f]!r}"
            for f in fields if outcome[f] != exp[f]]


def outcome_of(result) -> dict:
    return {"cycles": result.cycles, "instructions": result.instructions,
            "mem_digest": result.mem_digest,
            "output_digest": result.extra["output_digest"]}


@dataclass
class Tally:
    """Attempted and failed runs, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def record(self, errors: List[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.extend(errors)


def _quantile(samples: List[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles."""
    return statistics.quantiles(samples, n=100)[q - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sim_extras(results) -> Dict[str, float]:
    """Simulated per-layer extras summed over ``results`` (SimResults)."""
    stalls = StallBreakdown()
    for r in results:
        stalls.merge(r.stalls)
    return {
        "sim.gpu.cycles_per_instr": (sum(r.cycles for r in results)
                                     / sum(r.instructions for r in results)),
        "sim.sm.det_stall_frac": stalls.determinism_overhead_fraction(),
        "core.atomic_buffer.fused_atomics": sum(r.fused_atomics
                                                for r in results),
        "core.flush.flushes": sum(r.flush_count for r in results),
        "interconnect.packets": sum(r.icnt_packets for r in results),
        "interconnect.queue_delay_cycles": sum(r.icnt_queue_delay
                                               for r in results),
    }


def _errors(expected, key, arch, seed, outcome, reference):
    errors = check_cell(expected, key, arch, seed, outcome)
    if reference is not None and outcome != reference.get(key):
        errors.append(f"{key}: differs from the untraced run of this seed")
    return errors


# ----------------------------------------------------------------------
# Engine workloads.
# ----------------------------------------------------------------------

def _engine_round(cells, seed, expected, tally, factories=FACTORIES,
                  tracer=None, reference=None, speed=None):
    """Run every cell once; return [(cell key, wall s, result)].

    ``reference`` maps cell keys to the outcomes every run must repeat
    exactly (tracing must not change a single simulated value).  Each
    run's time is given to ``speed`` (a HostSpeed), if any.
    """
    out = []
    for arch, wname in cells:
        key = cell_key("titan_v", arch, wname)
        if tracer is not None:
            tracer.run_id += 1
        t0 = time.perf_counter()
        try:
            res = run_workload(factories[wname], ARCHS[arch],
                               gpu_config=GPUConfig.titan_v(), seed=seed)
        except Exception:  # a failed run is counted, not fatal
            tally.record([f"{key}: raised\n{traceback.format_exc()}"])
            continue
        dt = time.perf_counter() - t0
        if speed is not None:
            speed.mark(dt)
        tally.record(_errors(expected, key, arch, seed, outcome_of(res),
                             reference))
        out.append((key, dt, res))
    return out


def _timings(done) -> list:
    """(cell key, wall s, instructions) of engine runs, without results."""
    return [(k, dt, r.instructions) for k, dt, r in done]


def _measure_engine(name, seed, seconds, trace, expected, out_dir,
                    trace_rounds):
    cells = ENGINE_WORKLOADS[name]
    tally = Tally()
    _engine_round(cells, seed, expected, tally)  # warm-up, untimed

    speed = HostSpeed()
    speed.start()
    t_start = time.perf_counter()
    first = _engine_round(cells, seed, expected, tally, speed=speed)
    runs = _timings(first)
    rounds = 1
    while time.perf_counter() - t_start < seconds:
        runs += _timings(_engine_round(cells, seed, expected, tally,
                                       speed=speed))
        rounds += 1
    instructions = sum(n for _k, _dt, n in runs)
    per_instr = [dt / n for _k, dt, n in runs]
    metrics = {
        "instr_per_s": (instructions / speed.reference_s, len(runs)),
        "loop_instr_per_s": (instructions / speed.host_s, len(runs)),
        "host_slowdown": (speed.slowdown, len(runs)),
        "us_per_instr_p50": (statistics.median(per_instr) * 1e6,
                             len(per_instr)),
        "us_per_instr_p90": (_quantile(per_instr, 90) * 1e6, len(per_instr)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "sim_cycles": (sum(r.cycles for _k, _dt, r in first), len(first)),
        "replay_ms_per_job": (0.0, 0),
    }
    outcomes = {k: outcome_of(r) for k, _dt, r in first}
    doc = {"rounds": rounds, "tally": tally, "metrics": metrics,
           "round_outcomes": outcomes}
    if not trace:
        return doc

    tracer = layer_trace.Tracer()
    # The cell factory is the benchmark's own closure: wrap it directly.
    factories = {w: tracer.wrap("workloads:" + w, FACTORIES[w])
                 for _a, w in cells}
    with layer_trace.installed(tracer, layer_trace.engine_targets()):
        t_start = time.perf_counter()
        traced_rounds = [_engine_round(cells, seed, expected, tally,
                                       factories, tracer, outcomes)
                         for _ in range(trace_rounds)]
        t_wall = time.perf_counter() - t_start
    if out_dir is not None:
        tracer.write_jsonl(Path(out_dir) / f"spans-{name}.jsonl.gz")
    traced = [run for rnd in traced_rounds for run in rnd]
    results = [r for _k, _dt, r in traced]
    doc["trace_outcomes"] = {k: outcome_of(r)
                             for k, _dt, r in traced_rounds[0]}
    traced_instr = sum(r.instructions for r in results)
    doc["trace"] = layer_metrics(
        tracer, t_wall, traced_instr, jobs=0,
        untraced_ips=metrics["loop_instr_per_s"][0],
        traced_ips=traced_instr / sum(dt for _k, dt, _r in traced),
        extras=sim_extras(results))
    return doc


# ----------------------------------------------------------------------
# The campaign workload.
# ----------------------------------------------------------------------

def row_outcome(row) -> dict:
    return {"cycles": row.cycles, "instructions": row.instructions,
            "mem_digest": row.mem_digest, "output_digest": row.output_digest}


def _campaign_pass(seed, db, tmp, warm, expected, tally, tracer, reference):
    """One parse + run + render pass; returns (wall s, rows it added)."""
    if tracer is not None:
        tracer.run_id += 1
    before = len(db.runs())
    t0 = time.perf_counter()
    campaign = campaign_spec.parse_campaign(campaign_doc(seed))
    summary = run_campaign(campaign, db=db, jobs=CAMPAIGN_JOBS, cache=True,
                           cache_dir=str(tmp / "cache"))
    html = campaign_html.render_report(db, summary.fingerprint)
    (tmp / "report.html").write_text(html, encoding="utf-8")
    dt = time.perf_counter() - t0
    rows = db.runs()[before:]
    for _ in range(campaign.total_jobs - len(rows)):
        tally.record(["campaign pass recorded too few jobs"])
    for row in rows:
        key = cell_key("small", row.arch, row.workload)
        if row.quarantined:
            errors = [f"{key}: quarantined"]
        elif row.cache_hit != warm:
            errors = [f"{key}: cache_hit={row.cache_hit} on a "
                      f"{'warm' if warm else 'cold'} pass"]
        else:
            errors = _errors(expected, key, row.arch, seed, row_outcome(row),
                             reference)
        tally.record(errors)
    return dt, rows


@contextmanager
def _marking_jobs(speed):
    """Mark ``speed`` before the sweep runs each campaign job, so that no
    timed span is much longer than one job.  The mark stays outside the
    job's own ``run_workload`` wall time."""
    original = sweep.run_workload

    def marked(*args, **kwargs):
        speed.mark()
        return original(*args, **kwargs)

    sweep.run_workload = marked
    try:
        yield
    finally:
        sweep.run_workload = original


def _campaign_round(seed, scratch, expected, tally, tracer=None,
                    reference=None, speed=None):
    """Cold pass then warm replays in a fresh directory.

    Returns (cold wall s, cold rows, [warm wall s]).  A fresh db and
    cache every round keeps the replay cost from growing with db size.
    Warm replays must repeat the cold pass's outcomes exactly.  With
    ``speed`` (a HostSpeed), the cold pass is marked before each job
    runs, and once more at its end.
    """
    tmp = Path(tempfile.mkdtemp(prefix="round-", dir=scratch))
    try:
        with RunDB(tmp / "runs.db") as db:
            if speed is None:
                cold_s, cold_rows = _campaign_pass(
                    seed, db, tmp, False, expected, tally, tracer, reference)
            else:
                speed.start()
                with _marking_jobs(speed):
                    cold_s, cold_rows = _campaign_pass(
                        seed, db, tmp, False, expected, tally, tracer,
                        reference)
                speed.mark()
            if reference is None:
                reference = {cell_key("small", r.arch, r.workload):
                             row_outcome(r) for r in cold_rows}
            warm = [_campaign_pass(seed, db, tmp, True, expected, tally,
                                   tracer, reference)[0]
                    for _ in range(WARM_REPLAYS)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return cold_s, cold_rows, warm


def _measure_campaign(seed, seconds, trace, expected, out_dir, trace_rounds):
    scratch = Path(out_dir if out_dir is not None else DEFAULT_OUT) / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    speed = HostSpeed()
    done: list = []
    t_start = time.perf_counter()
    while not done or time.perf_counter() - t_start < seconds:
        done.append(_campaign_round(seed, scratch, expected, tally,
                                    speed=speed))
    first = done[0][1]
    instructions = sum(r.instructions for _c, rows, _w in done for r in rows)
    # run_workload wall time of each cold job, as the sweep recorded it.
    per_instr = [r.wall_s / r.instructions for _c, rows, _w in done
                 for r in rows]
    warm_ms_per_job = [w * 1e3 / len(rows) for _c, rows, warm in done
                       for w in warm]
    metrics = {
        "instr_per_s": (instructions / speed.reference_s, len(per_instr)),
        "loop_instr_per_s": (instructions / speed.host_s, len(per_instr)),
        "host_slowdown": (speed.slowdown, len(per_instr)),
        "us_per_instr_p50": (statistics.median(per_instr) * 1e6,
                             len(per_instr)),
        "us_per_instr_p90": (_quantile(per_instr, 90) * 1e6, len(per_instr)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "sim_cycles": (sum(r.cycles for r in first), len(first)),
        "replay_ms_per_job": (statistics.median(warm_ms_per_job),
                              len(warm_ms_per_job)),
    }
    outcomes = {cell_key("small", r.arch, r.workload): row_outcome(r)
                for r in first}
    doc = {"rounds": len(done), "tally": tally, "metrics": metrics,
           "round_outcomes": outcomes}
    if not trace:
        return doc

    tracer = layer_trace.Tracer()
    targets = layer_trace.engine_targets() + layer_trace.campaign_targets()
    with layer_trace.installed(tracer, targets):
        t_start = time.perf_counter()
        traced = [_campaign_round(seed, scratch, expected, tally, tracer,
                                  outcomes)
                  for _ in range(trace_rounds)]
        t_wall = time.perf_counter() - t_start
    if out_dir is not None:
        tracer.write_jsonl(Path(out_dir) / f"spans-{CAMPAIGN}.jsonl.gz")
    rows = [r for _c, rs, _w in traced for r in rs]
    doc["trace_outcomes"] = {cell_key("small", r.arch, r.workload):
                             row_outcome(r) for r in traced[0][1]}
    traced_instr = sum(r.instructions for r in rows)
    doc["trace"] = layer_metrics(
        tracer, t_wall, traced_instr, jobs=len(rows) * (1 + WARM_REPLAYS),
        untraced_ips=metrics["loop_instr_per_s"][0],
        traced_ips=traced_instr / sum(c_s for c_s, _rs, _w in traced),
        extras=sim_extras([SimResult.from_metrics_dict(r.metrics)
                           for r in rows]))
    return doc


# ----------------------------------------------------------------------
# Per-layer metrics.
# ----------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, wall_s, instructions, jobs, untraced_ips,
                  traced_ips, extras) -> Dict[str, float]:
    """Per-layer numbers of one traced pass (every layer, 0 if idle).

    Engine layers are charged per simulated warp-instruction; campaign
    layers per job, since their work scales with jobs, not instructions.
    """
    self_ns = tracer.by_layer(tracer.self_ns)
    calls = tracer.by_layer(tracer.calls)
    span_calls = dict(zip(tracer.names, tracer.calls))
    span_yields = dict(zip(tracer.names, tracer.yields))

    def yield_of(name):
        return _ratio(span_yields.get(name, 0), span_calls.get(name, 0))

    m: Dict[str, float] = {}
    for layer in layer_trace.ENGINE_LAYERS:
        m[f"{layer}.self_ns_per_instr"] = _ratio(self_ns.get(layer, 0),
                                                 instructions)
        m[f"{layer}.calls"] = calls.get(layer, 0)
    for layer in layer_trace.CAMPAIGN_LAYERS:
        m[f"{layer}.self_ms_per_job"] = _ratio(self_ns.get(layer, 0) / 1e6,
                                               jobs)
        m[f"{layer}.calls"] = calls.get(layer, 0)
    m["sim.gpu.events"] = span_calls.get("sim.gpu:GPU.schedule", 0)
    m["sim.dispatcher.place_yield"] = yield_of(
        "sim.dispatcher:CTADispatcher.place")
    m["sim.sm.issue_yield"] = yield_of("sim.sm:SM.issue_cycle_fast")
    m["core.flush.trigger_yield"] = yield_of(
        "core.flush:FlushController.maybe_trigger")
    m["gpudet.tick_yield"] = yield_of("gpudet:GPUDetController.tick")
    m["harness.sweep.cache_hit_ratio"] = yield_of(
        "harness.sweep:ResultCache.get")
    m.update(extras)
    traced_wall_ns = wall_s * 1e9
    m["trace_overhead_frac"] = untraced_ips / traced_ips - 1.0
    m["bench.traced_ns_per_instr"] = traced_wall_ns / instructions
    m["bench.unattributed_ns_per_instr"] = (
        (traced_wall_ns - sum(self_ns.values())) / instructions)
    return m


# ----------------------------------------------------------------------
# Entry points.
# ----------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool,
            expected: dict, out_dir=None,
            trace_rounds: Optional[int] = None) -> dict:
    """Measure one workload in this process.

    Runs an untraced closed loop for ``seconds`` (at least one round),
    then, with ``trace``, ``trace_rounds`` traced rounds.  Returns
    ``{"rounds", "attempted", "failed", "errors",
    "metrics": {name: (value, n)}, "round_outcomes"}`` plus, when
    traced, ``"trace"`` (per-layer metrics) and ``"trace_outcomes"``
    (the first traced round's outcomes).
    """
    if trace_rounds is None:
        trace_rounds = TRACE_ROUNDS[workload]
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    if workload == CAMPAIGN:
        doc = _measure_campaign(seed, seconds, trace, expected, out_dir,
                                trace_rounds)
    elif workload in ENGINE_WORKLOADS:
        doc = _measure_engine(workload, seed, seconds, trace, expected,
                              out_dir, trace_rounds)
    else:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(known: {', '.join(WORKLOADS)})")
    tally = doc.pop("tally")
    doc.update(attempted=tally.attempted, failed=tally.failed,
               errors=tally.errors)
    return doc


def capture_expected() -> dict:
    """Seed-1 outcomes of every cell the benchmark checks."""
    cells = {}
    for name, pairs in ENGINE_WORKLOADS.items():
        for arch, wname in pairs:
            res = run_workload(FACTORIES[wname], ARCHS[arch],
                               gpu_config=GPUConfig.titan_v(), seed=1)
            cells[cell_key("titan_v", arch, wname)] = outcome_of(res)
    scratch = DEFAULT_OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="expected-", dir=scratch))
    try:
        with RunDB(tmp / "runs.db") as db:
            run_campaign(campaign_spec.parse_campaign(campaign_doc(1)), db=db,
                         jobs=1, cache=False)
            for row in db.runs():
                cells[cell_key("small", row.arch,
                               row.workload)] = row_outcome(row)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return dict(sorted(cells.items()))


def _child_main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(DEFAULT_OUT))
    args = ap.parse_args(argv)
    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  load_expected(), out_dir=args.out)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(_child_main())
