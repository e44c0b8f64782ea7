"""Command-line interface: run workloads and experiments from a shell.

Examples::

    python -m repro run --workload bc:FA --arch dab
    python -m repro run --workload conv:cnv2_2 --arch baseline --seed 3
    python -m repro run --workload pagerank:coA --arch gpudet
    python -m repro run --workload microbench --arch dab \
        --metrics-json - --trace /tmp/mb.jsonl
    python -m repro trace --workload microbench --arch dab --view waterfall
    python -m repro audit --workload microbench --seeds 1,2,3,4
    python -m repro audit --workload microbench --trace-digest
    python -m repro chaos --seeds 10
    python -m repro chaos --workload pagerank:coA --journal /tmp/chaos-journal
    python -m repro chaos host --seed 0 --workdir /tmp/chaos-host
    python -m repro doctor benchmarks/results/cache
    python -m repro doctor benchmarks/results/runs.db --json -
    python -m repro check diff --jobs 4
    python -m repro check diff --workloads atomic_sum,histogram --json -
    python -m repro check drf
    python -m repro check drf --workload lock_sum_racy   # expected RACY
    python -m repro check mc --brute --cert-dir /tmp/mc-certs
    python -m repro check mc --workloads lock_sum_racy   # witnessed divergence
    python -m repro audit --workload microbench --drf
    python -m repro experiment fig10
    python -m repro campaign run examples/campaigns/fig10_quick.yaml
    python -m repro report benchmarks/results/runs.db
    python -m repro list

``run`` executes one (workload, architecture) pair and prints the
result summary; ``trace`` runs with event tracing on and renders
text timelines (flush waterfall, buffer occupancy); ``audit`` sweeps
jitter seeds and reports bitwise digests (the determinism check);
``chaos`` fuzzes seeded fault plans against all three architectures
and asserts DAB/GPUDet outputs stay bitwise identical while the
baseline diverges, then corrupts the flush protocol on purpose and
asserts the invariant checker catches it (both run the Section V
matrix of the ``determinism`` experiment as a campaign and append its
jobs to the run database); ``check`` is the conformance
subsystem — ``check diff`` runs the workload × architecture matrix
against the ISA-level reference oracle, ``check drf`` certifies
workloads data-race-free, and ``check mc`` exhaustively model-checks
tiny micro-kernels across *every* legal warp interleaving
(DPOR-pruned, brute-force cross-checkable), proving DAB's commit
determinism per kernel and emitting replay-verified divergence
witnesses for the baseline as ``repro.mc/v1`` certificates;
``experiment`` regenerates one paper
table/figure by name and, like ``campaign run`` (a declarative yaml
campaign), appends every job to the persistent run database;
``report`` renders the database into a static HTML dashboard;
``doctor`` scans artifact stores (cache directories, run databases)
for corruption, quarantines what it finds, and prints a
machine-readable integrity report; ``chaos host`` is the host-fault
twin of ``chaos`` — it kills/SIGSTOPs workers, flips bits in every
store, and simulates a full disk, asserting recovery is
byte-identical or failure is loud.

Exit codes: 0 success, 1 failure (a simulation error, such as DAB
rejecting returning atomics, prints one ``repro:`` line), 2 usage
error, 3 sweep timeout, 4 unrecoverable worker failure, 5 campaign
completed degraded (quarantined jobs — see ``campaign run
--resilient``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from repro.campaign.runner import run_campaign
from repro.campaign.spec import parse_campaign
from repro.check.differential import diff_one, run_differential
from repro.check.mc import (
    DEFAULT_MAX_INTERLEAVINGS,
    MCError,
    certify_many,
    write_certificates,
)
from repro.check.presets import CERT_WORKLOADS, DIFF_WORKLOADS, MC_WORKLOADS
from repro.check.racecert import certify_drf
from repro.config import GPU_PRESETS
from repro.core.dab import BufferLevel, DABConfig
from repro.faults import FaultConfig, FaultPlan, InvariantViolation
from repro.gpudet.gpudet import GPUDetConfig
from repro.harness import sweep
from repro.harness.experiments import (
    BASELINE_DIVERGES,
    FIGURES,
    ONE_DIGEST_EACH,
    Grid,
    determinism_matrix,
    determinism_validation,
    judge_claims,
    run_figure,
)
from repro.harness.runner import ArchSpec, run_workload
from repro.harness.sweep import (
    SweepTimeoutError,
    SweepWorkerError,
    WorkloadRef,
    run_jobs,
)
from repro.obs import CATEGORIES, ObsConfig
from repro.obs.views import (
    render_buffer_occupancy,
    render_flush_waterfall,
    render_trace_summary,
)
from repro.sim.gpu import SimulationError
from repro.workloads.convolution import CONV_LAYER_NAMES, GATING_LAYERS
from repro.workloads.graphs import TABLE2_GRAPHS
from repro.workloads.locks import LOCK_ALGORITHMS

# Exit-code contract (documented in the module docstring; asserted by
# tests/integration/test_cli_errors.py).  argparse owns 2.
EXIT_TIMEOUT = 3
EXIT_WORKER = 4
EXIT_DEGRADED = 5


def parse_workload_ref(spec: str) -> WorkloadRef:
    """``family[:variant]`` -> picklable WorkloadRef.

    A ref is itself a zero-argument workload factory, so ``run`` and
    ``trace`` call it directly and sweep jobs pickle it.
    """
    family, _, variant = spec.partition(":")
    if family == "bc":
        return WorkloadRef("bc", (variant or "FA", 0))
    if family == "pagerank":
        return WorkloadRef("pagerank", (variant or "coA", 0))
    if family == "sssp":
        return WorkloadRef("sssp", (variant or "FA", 0))
    if family == "conv":
        return WorkloadRef("conv", (variant or "cnv2_1",))
    if family == "microbench":
        return WorkloadRef("atomic_sum", (int(variant) if variant else 1024,))
    if family == "order-sensitive":
        return WorkloadRef("order_sensitive",
                           (int(variant) if variant else 512,))
    if family == "lock":
        return WorkloadRef("lock_sum", (variant or "tts", 64))
    raise SystemExit(
        f"unknown workload {spec!r}; see `python -m repro list`"
    )


def parse_arch(args) -> ArchSpec:
    if args.arch == "baseline":
        return ArchSpec.baseline()
    if args.arch == "gpudet":
        return ArchSpec.make_gpudet(GPUDetConfig(quantum_instrs=args.quantum))
    if args.arch == "dab":
        cfg = DABConfig(
            buffer_level=BufferLevel.WARP if args.warp_level
            else BufferLevel.SCHEDULER,
            buffer_entries=args.entries,
            scheduler="gto" if args.warp_level else args.scheduler,
            fusion=args.fusion,
            coalescing=args.coalescing,
            offset_flush=args.offset,
        )
        return ArchSpec.make_dab(cfg)
    raise SystemExit(f"unknown architecture {args.arch!r}")


def parse_obs(args) -> Optional[ObsConfig]:
    """Build an ObsConfig from ``run``-style flags (None = observe nothing)."""
    want_trace = bool(args.trace)
    want_metrics = bool(args.metrics_json)
    want_profile = bool(getattr(args, "profile", False))
    if not (want_trace or want_metrics or want_profile):
        return None
    cats = None
    if args.trace_categories:
        cats = tuple(c.strip() for c in args.trace_categories.split(",")
                     if c.strip())
        unknown = set(cats) - set(CATEGORIES)
        if unknown:
            raise SystemExit(
                f"unknown trace categories {sorted(unknown)}; "
                f"choose from {', '.join(CATEGORIES)}"
            )
    return ObsConfig(metrics=want_metrics, trace=want_trace,
                     trace_categories=cats,
                     trace_capacity=args.trace_capacity,
                     profile=want_profile)


def _write_json(doc, dest: str, what: str, lead: str = "") -> None:
    """Print ``doc`` as JSON (``dest`` ``-``) or write it to ``dest``
    and say so; an unwritable ``dest`` exits 1 with one line."""
    text = json.dumps(doc, indent=2, sort_keys=True)
    if dest == "-":
        print(text)
        return
    try:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as e:
        raise SystemExit(f"cannot write {what} {dest!r}: {e}")
    print(f"{lead}{what}: {dest}")


def _write_trace(tracer, dest: str) -> None:
    try:
        tracer.write_jsonl(dest)
    except OSError as e:
        raise SystemExit(f"cannot write trace {dest!r}: {e}")
    print(f"  trace: {len(tracer)} events -> {dest} "
          f"(digest {tracer.digest()[:16]}…)")


def cmd_run(args) -> int:
    factory = parse_workload_ref(args.workload)
    arch = parse_arch(args)
    config = GPU_PRESETS[args.preset]()
    obs = parse_obs(args)
    res = run_workload(factory, arch, gpu_config=config, seed=args.seed,
                       obs=obs)
    print(res.summary())
    print(f"  output digest: {res.extra['output_digest'][:16]}…")
    print(f"  stall breakdown: "
          f"{ {k: v for k, v in res.stalls.as_dict().items() if v} }")
    if res.gpudet_mode_cycles:
        print(f"  GPUDet modes: {res.gpudet_mode_cycles}")
    if args.trace:
        _write_trace(res.obs.tracer, args.trace)
    if args.metrics_json:
        _write_json(res.metrics_dict(), args.metrics_json, "metrics json",
                    lead="  ")
    if getattr(args, "profile", False):
        print("  host profile (wall clock, not deterministic):")
        for phase, seconds, calls in res.obs.profiler.table_rows():
            print(f"    {phase:12s} {seconds:9.4f}s  {calls:>9d} calls")
    return 0


def cmd_trace(args) -> int:
    factory = parse_workload_ref(args.workload)
    arch = parse_arch(args)
    config = GPU_PRESETS[args.preset]()
    obs = ObsConfig(trace=True, trace_capacity=args.trace_capacity)
    res = run_workload(factory, arch, gpu_config=config, seed=args.seed,
                       obs=obs)
    tracer = res.obs.tracer
    views = ("summary", "waterfall", "occupancy") \
        if args.view == "all" else (args.view,)
    chunks = []
    if "summary" in views:
        chunks.append(render_trace_summary(tracer))
    if "waterfall" in views:
        chunks.append(render_flush_waterfall(tracer,
                                             max_flushes=args.max_flushes))
    if "occupancy" in views:
        chunks.append(render_buffer_occupancy(tracer))
    print(f"{res.summary()}\n")
    print("\n\n".join(chunks))
    if args.out:
        print()
        _write_trace(tracer, args.out)
    return 0


def _section_v(campaign: str, args, ref: WorkloadRef, jobs, cache_dir=None,
               obs=None, **matrix):
    """Run the Section V matrix of ``args.workload`` (parsed as ``ref``)
    on ``args.preset`` as the one-figure campaign ``campaign``, recorded
    in the run database, without the shared cache: a determinism check
    that replays stored results proves nothing (``cache_dir`` is chaos's
    private resume cache).  Returns the figure, its grid, its
    :func:`determinism_validation` data and each claim's verdict."""
    workload = {"name": args.workload, "factory": ref.factory,
                "args": list(ref.args), "kwargs": dict(ref.kwargs)}
    parsed = parse_campaign({"campaign": campaign, "figures": [
        determinism_matrix(f"{args.workload}@{args.preset}", workload,
                           preset=args.preset, **matrix)]})
    summary = run_campaign(parsed, jobs=jobs, cache=cache_dir is not None,
                           cache_dir=cache_dir, obs=obs)
    grid = Grid(parsed, summary)
    table = determinism_validation(grid)
    return parsed.figures[0], grid, table.data, {
        v.claim: v.holds for v in judge_claims("determinism", table)}


def cmd_audit(args) -> int:
    ref = parse_workload_ref(args.workload)
    seeds = [int(s) for s in args.seeds.split(",")]
    jobs = getattr(args, "jobs", 1)
    obs = ObsConfig(trace=True, trace_capacity=0) if args.trace_digest else None
    if obs is not None and jobs and jobs > 1:
        # Observability hubs hold live tracer state and aren't picklable;
        # traced audits must run in-process (DESIGN.md §9).
        raise SystemExit("--trace-digest requires --jobs 1 "
                         "(traces are collected in-process)")
    print(f"Determinism audit of {args.workload!r} over seeds {seeds}:")
    figure, grid, data, holds = _section_v("audit", args, ref, jobs,
                                           obs=obs, seeds=seeds)
    ok = holds[ONE_DIGEST_EACH]
    for arch, row in data.items():
        det = row["deterministic"]
        print(f"  {arch:9s} {row['distinct']} distinct digest(s) "
              f"-> {'deterministic' if det else 'NON-deterministic'}")
        if args.trace_digest:
            # Traces are cycle-stamped so they differ across jitter seeds
            # (timing is allowed to vary); the determinism claim audited
            # here is *repeatability* — the same seed must reproduce the
            # trace bit-for-bit.
            first = next(job for job in figure.jobs
                         if (job.arch, job.seed) == (arch, seeds[0]))
            (repeat,) = run_jobs([first.spec], cache=False, obs=obs)
            digest = repeat.obs.tracer.digest()
            same = digest == grid.results[
                figure.name, first.workload, arch, first.seed, None
            ].obs.tracer.digest()
            ok = ok and same
            trace_digests = {r.obs.tracer.digest()
                             for r in grid.runs(figure.name, arch)}
            print(f"            trace: {len(trace_digests)} distinct "
                  f"digest(s) across seeds; seed {seeds[0]} repeat run "
                  f"{'IDENTICAL' if same else 'DIVERGED'} "
                  f"({digest[:16]}…)")
    if getattr(args, "drf", False):
        # Determinism is only *guaranteed* for data-race-free programs;
        # certify the precondition alongside the digest audit.
        report = certify_drf(ref, gpu=GPU_PRESETS[args.preset]())
        ok = ok and report.ok
        print("  " + report.render().replace("\n", "\n  "))
    return 0 if ok else 1


def cmd_chaos(args) -> int:
    """Seeded chaos campaign: fault plans vs all three architectures.

    Two claims are exercised.  *Determinism survives timing chaos*:
    under N sampled fault plans (DRAM bursts, interconnect spikes,
    adversarial reordering, partition stalls, delayed pre-flush counts)
    DAB and GPUDet must each produce exactly one output digest, while
    the baseline is expected to diverge.  *Corruption is detected*:
    dropped and duplicated flush entries (the DAB-NR failure modes) must
    each raise a structured :class:`InvariantViolation`.
    """
    if args.journal is not None:
        journal = Path(args.journal)
        if journal.exists() and not journal.is_dir():
            raise SystemExit(f"chaos: --journal {journal} exists and is "
                             f"not a directory")
    ref = parse_workload_ref(args.workload)
    config = GPU_PRESETS[args.preset]()
    if args.seeds < 1:
        raise SystemExit("--seeds must be >= 1")
    plans = list(range(1, args.seeds + 1))
    print(f"Chaos campaign: {args.workload!r} on preset {args.preset!r}, "
          f"{len(plans)} fault plan(s) "
          f"(schedule digests {FaultPlan.sample(1).schedule_digest()[:8]}… "
          f"… {FaultPlan.sample(args.seeds).schedule_digest()[:8]}…)")
    # One job per (arch, plan) at one jitter seed; invariants stay armed
    # throughout so any protocol breakage under pure timing chaos fails
    # loudly.
    try:
        _figure, _grid, data, holds = _section_v(
            "chaos", args, ref, args.jobs, cache_dir=args.journal,
            seeds=[args.seed], fault_plans=plans, invariants=True)
    except InvariantViolation as e:
        print(f"  INVARIANT VIOLATION under timing-only faults: {e}")
        return 1
    # With >=2 plans the baseline *should* diverge; a single digest
    # would mean the fault plans never perturbed the atomic order and
    # the campaign proved nothing.
    ok = holds[ONE_DIGEST_EACH] and (len(plans) < 2
                                     or holds[BASELINE_DIVERGES])
    for arch, row in data.items():
        det = row["deterministic"]
        if arch == "baseline":
            verdict = ("diverged as expected" if not det
                       else "did NOT diverge (campaign too weak?)")
        else:
            verdict = ("bitwise identical" if det
                       else "NON-DETERMINISTIC under faults")
        print(f"  {arch:9s} {row['distinct']} distinct digest(s) over "
              f"{len(plans)} plan(s) -> {verdict} "
              f"[{row['faults_injected']} faults injected, "
              f"{row['invariant_checks']} invariant checks]")

    print("Corruption detection (DAB-NR study failure modes):")
    probes = (
        ("drop", FaultConfig(drop_prob=0.15)),
        ("dup", FaultConfig(dup_prob=0.25)),
    )
    for name, fault_cfg in probes:
        try:
            run_workload(ref, ArchSpec.make_dab(), gpu_config=config,
                         seed=args.seed,
                         faults=FaultPlan(args.corrupt_seed, fault_cfg),
                         invariants=True)
        except InvariantViolation as e:
            print(f"  {name:5s} entry fault -> caught: {e}")
        except Exception as e:  # noqa: BLE001 - report, then fail
            ok = False
            print(f"  {name:5s} entry fault -> WRONG ERROR "
                  f"({type(e).__name__}: {e})")
        else:
            ok = False
            print(f"  {name:5s} entry fault -> NOT DETECTED "
                  f"(run completed cleanly)")
    print("chaos campaign PASSED" if ok else "chaos campaign FAILED")
    return 0 if ok else 1


def cmd_chaos_dispatch(args) -> int:
    """``chaos`` front door: plain = fault-plan fuzzing, ``host`` = the
    host-fault harness (kept as a dispatch wrapper so the flat
    ``repro chaos --seeds N`` invocation keeps working unchanged)."""
    if getattr(args, "chaos_command", None) == "host":
        return cmd_chaos_host(args)
    return cmd_chaos(args)


def cmd_chaos_host(args) -> int:
    """Seeded host-fault harness: prove the stores and the sweep engine
    survive bit rot, poison jobs, stopped workers, and full disks."""
    import tempfile

    from repro.resilience.chaoshost import (
        ALL_PROBES,
        HostFaultConfig,
        HostFaultPlan,
        run_chaos_host,
    )
    from repro.resilience.integrity import atomic_write_text

    probes = ALL_PROBES
    if args.probes:
        probes = tuple(p.strip() for p in args.probes.split(",") if p.strip())
    try:
        plan = HostFaultPlan(args.host_seed, HostFaultConfig(
            probes=probes, jobs=args.host_jobs, timeout=args.host_timeout))
    except ValueError as e:
        raise SystemExit(f"chaos host: {e}")
    workdir = Path(args.workdir) if args.workdir \
        else Path(tempfile.mkdtemp(prefix="repro-chaos-host-"))
    print(f"chaos host: seed {plan.seed}, probes "
          f"{', '.join(plan.config.probes)} -> {workdir}")
    report = run_chaos_host(plan, workdir)
    report_path = workdir / "chaos_host_report.json"
    atomic_write_text(report_path,
                      json.dumps(report, indent=2, sort_keys=True) + "\n")
    for probe in report["probes"]:
        verdict = "skipped ({})".format(probe["skipped"]) \
            if probe.get("skipped") else ("ok" if probe["ok"] else "FAILED")
        print(f"  {probe['probe']:9s} {verdict}")
    print(f"report: {report_path}")
    print("chaos host PASSED" if report["ok"] else "chaos host FAILED")
    return 0 if report["ok"] else 1


def cmd_doctor(args) -> int:
    """Scan an artifact store (cache dir or run db): verify every
    checksum and quarantine corruption; exit 0 iff no corruption was
    found (staleness is not corruption)."""
    from repro.resilience.doctor import diagnose

    report = diagnose(args.target)
    for store in report["stores"]:
        kind = store["kind"]
        if store.get("error"):
            print(f"  {kind} {store['path']}: UNREADABLE ({store['error']})")
            continue
        if kind == "cache":
            print(f"  cache {store['path']}: {store['entries']} entr(y/ies), "
                  f"{store['verified']} verified, {store['stale']} stale, "
                  f"{len(store['quarantined'])} quarantined")
        elif kind == "rundb":
            print(f"  rundb {store['path']}: {store['rows']} row(s), "
                  f"{store['verified']} verified, {store['unsealed']} "
                  f"unsealed, {len(store['corrupt'])} corrupt, "
                  f"{store['quarantined']} quarantined")
    if report.get("error"):
        print(f"doctor: {report['error']}")
    if args.json:
        _write_json(report, args.json, "report json")
    print("doctor: all stores clean" if report["ok"]
          else "doctor: CORRUPTION FOUND (quarantined where repairable)")
    return 0 if report["ok"] else 1


def cmd_check_diff(args) -> int:
    """Differential conformance: matrix vs the reference oracle."""
    names = None
    if args.workloads:
        names = [w.strip() for w in args.workloads.split(",") if w.strip()]
    if args.inject_drop:
        return _check_diff_inject_drop(args)
    try:
        report = run_differential(workloads=names, seed=args.seed,
                                  jobs=args.jobs,
                                  attribute_cycles=not args.no_attribution)
    except ValueError as e:
        raise SystemExit(f"check diff: {e}")
    print(report.render())
    if args.json:
        _write_json(report.to_doc(), args.json, "report json")
    return 0 if report.ok else 1


def _check_diff_inject_drop(args) -> int:
    """Detector self-test: a seeded drop-fault must produce a structured
    mismatch naming the corrupted address (exit 0 iff it does)."""
    mismatches, status = diff_one(
        "multi_target", ArchSpec.make_dab(), seed=args.seed,
        faults=FaultPlan(1, FaultConfig(drop_prob=0.3)))
    print(f"drop-fault injection on 'multi_target' (DAB): status={status}, "
          f"{len(mismatches)} mismatch(es)")
    for m in mismatches:
        print("  " + m.render())
    named = [m for m in mismatches if m.addr >= 0]
    if named:
        print("drop-fault DETECTED (corrupted addresses named above)")
        return 0
    print("drop-fault NOT detected — differential harness is blind to it")
    return 1


def cmd_check_drf(args) -> int:
    """Dynamic race certification over the preset workloads."""
    if args.workload:
        names = [w.strip() for w in args.workload.split(",") if w.strip()]
    else:
        names = list(CERT_WORKLOADS)
    refs = dict(CERT_WORKLOADS)
    # The seeded negative control is addressable by name (expected RACY;
    # `check drf --workload lock_sum_racy` exits 1 — CI asserts that).
    refs["lock_sum_racy"] = WorkloadRef(
        "lock_sum_racy", kwargs={"n": 128, "cta_dim": 64})
    unknown = [n for n in names if n not in refs]
    if unknown:
        raise SystemExit(
            f"check drf: unknown workload(s) {unknown}; "
            f"known: {', '.join(refs)}")
    ok = True
    for name in names:
        report = certify_drf(refs[name])
        ok = ok and report.ok
        print(report.render())
    print("race certification PASSED" if ok else "race certification FAILED")
    return 0 if ok else 1


def cmd_check_mc(args) -> int:
    """Exhaustive interleaving certification via stateless model checking."""
    names = None
    if args.workloads:
        names = [w.strip() for w in args.workloads.split(",") if w.strip()]
    try:
        reports = certify_many(
            names,
            dpor=not args.no_dpor,
            brute=args.brute,
            jobs=args.jobs,
            max_interleavings=args.max_interleavings,
        )
    except ValueError as e:
        raise SystemExit(f"check mc: {e}")
    except MCError as e:
        raise SystemExit(f"check mc: {e}")
    for report in reports:
        print(report.render())
    if args.cert_dir:
        for path in write_certificates(reports, args.cert_dir):
            print(f"certificate: {path}")
    if args.json:
        _write_json([r.to_doc() for r in reports], args.json, "report json")
    broken = [r.preset for r in reports if not r.as_expected]
    ok = all(r.ok for r in reports)
    if broken:
        print(f"model checking BROKEN: unexpected outcome for "
              f"{', '.join(broken)}")
    elif ok:
        print("model checking PASSED (exhaustive)")
    else:
        # A racy negative control was certified non-deterministic with a
        # verified witness — the expected outcome, but not a pass.
        print("model checking FAILED (divergence witnessed, as expected "
              "for racy controls)")
    return 0 if ok else 1


def cmd_experiment(args) -> int:
    """Regenerate one table/figure; its jobs are appended to the run db."""
    if args.name not in FIGURES:
        raise SystemExit(
            f"unknown experiment {args.name!r}; one of {sorted(FIGURES)}"
        )
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    with sweep.configured(jobs=jobs, cache=not args.no_cache,
                          cache_dir=args.cache_dir):
        print(run_figure(args.name, quick=args.quick))
    return 0


def cmd_campaign_run(args) -> int:
    """Run a declarative campaign and append every job to the run db."""
    from repro.campaign import CampaignError, load_campaign, run_campaign

    from repro.resilience import ResilienceContext

    try:
        campaign = load_campaign(args.yaml)
    except CampaignError as e:
        raise SystemExit(f"campaign: {e}")
    resilience = ResilienceContext() if args.resilient else None
    summary = run_campaign(
        campaign,
        db_path=args.db,
        jobs=args.jobs,
        cache=False if args.no_cache else None,
        cache_dir=args.cache_dir,
        resilience=resilience,
    )
    print(summary.table().render())
    print(f"{summary.jobs} job(s) recorded -> {summary.db_path} "
          f"({summary.cache_hits} replayed, "
          f"{summary.simulated} simulated)")
    if summary.degraded:
        # Loud, distinct, and machine-checkable: the campaign finished,
        # but not whole — quarantined rows carry the blame.
        for record in (resilience.quarantine.records if resilience else []):
            print(f"  quarantined: {record.workload} "
                  f"(job {record.index}, {record.kind}, "
                  f"{record.attempts} isolated attempts)")
        return EXIT_DEGRADED
    return 0


def cmd_report(args) -> int:
    """Render the run database into a deterministic HTML dashboard."""
    from repro.campaign import (
        RunDB,
        RunDBError,
        default_db_path,
        ingest_bench_dir,
        render_report,
    )

    db_path = Path(args.db) if args.db else default_db_path()
    to_stdout = args.out == "-"
    try:
        with RunDB(db_path) as db:
            if not args.no_ingest:
                bench_dir = (Path(args.bench_dir) if args.bench_dir
                             else db_path.parent)
                inserted = ingest_bench_dir(db, bench_dir)
                for source in sorted(inserted):
                    if inserted[source] and not to_stdout:
                        print(f"ingested {inserted[source]} new "
                              f"BENCH entr(y/ies) from {source!r}")
            html = render_report(db)
            counts = db.counts()
    except RunDBError as e:
        raise SystemExit(f"report: {e}")
    if to_stdout:
        sys.stdout.write(html)
        return 0
    out = Path(args.out) if args.out else db_path.parent / "report.html"
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(html, encoding="utf-8")
    except OSError as e:
        raise SystemExit(f"report: cannot write {out}: {e}")
    print(f"dashboard: {out} ({counts['runs']} run(s), "
          f"{counts['bench']} bench entr(y/ies))")
    return 0


def cmd_list(_args) -> int:
    print("workloads:")
    print(f"  bc:<graph>          graphs: {', '.join(TABLE2_GRAPHS)}")
    print("  pagerank:<graph>    (same graphs; default coA)")
    print("  sssp:<graph>        (same graphs; default FA)")
    print(f"  conv:<layer>        layers: {', '.join(CONV_LAYER_NAMES)}")
    print(f"                      gating variants: {', '.join(GATING_LAYERS)}")
    print("  microbench:<n>      atomicAdd array sum")
    print("  order-sensitive:<n> Section V validation benchmark")
    print(f"  lock:<alg>          algorithms: {', '.join(LOCK_ALGORITHMS)}")
    print("                      (returning atomics: needs --arch baseline "
          "or gpudet)")
    print("architectures: baseline, dab, gpudet")
    print(f"machine presets: {', '.join(GPU_PRESETS)}")
    print(f"experiments: {', '.join(sorted(FIGURES))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Deterministic Atomic Buffering (MICRO 2020) reproduction",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_arch_args(sp) -> None:
        sp.add_argument("--workload", required=True)
        sp.add_argument("--arch", default="dab",
                        choices=["baseline", "dab", "gpudet"])
        sp.add_argument("--preset", default="small", choices=list(GPU_PRESETS))
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--scheduler", default="gwat",
                        choices=["srr", "gtrr", "gtar", "gwat"])
        sp.add_argument("--entries", type=int, default=64)
        sp.add_argument("--fusion", action="store_true")
        sp.add_argument("--coalescing", action="store_true")
        sp.add_argument("--offset", action="store_true")
        sp.add_argument("--warp-level", action="store_true")
        sp.add_argument("--quantum", type=int, default=200)
        sp.add_argument("--trace-capacity", type=int, default=0,
                        help="trace ring-buffer size in events (0=unbounded)")

    run_p = sub.add_parser("run", help="run one workload on one architecture")
    add_arch_args(run_p)
    run_p.add_argument("--trace", metavar="PATH",
                       help="capture events and write a JSONL trace here")
    run_p.add_argument("--trace-categories", metavar="CSV",
                       help=f"comma-separated subset of {','.join(CATEGORIES)}")
    run_p.add_argument("--metrics-json", metavar="PATH",
                       help="write the machine-readable run report "
                            "(metrics_dict) here; '-' = stdout")
    run_p.add_argument("--profile", action="store_true",
                       help="time host-side simulation phases")
    run_p.set_defaults(fn=cmd_run)

    trace_p = sub.add_parser(
        "trace", help="run with tracing on and render text timelines")
    add_arch_args(trace_p)
    trace_p.add_argument("--view", default="all",
                         choices=["all", "summary", "waterfall", "occupancy"])
    trace_p.add_argument("--max-flushes", type=int, default=8,
                         help="waterfall: cap on flushes shown")
    trace_p.add_argument("--out", metavar="PATH",
                         help="also write the JSONL trace here")
    trace_p.set_defaults(fn=cmd_trace)

    audit_p = sub.add_parser("audit", help="determinism audit across seeds")
    audit_p.add_argument("--workload", default="order-sensitive")
    audit_p.add_argument("--preset", default="small", choices=list(GPU_PRESETS))
    audit_p.add_argument("--seeds", default="1,2,3")
    audit_p.add_argument("--trace-digest", action="store_true",
                         help="also audit trace-file repeatability "
                              "(same seed -> bitwise-identical JSONL)")
    audit_p.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for the seed sweep "
                              "(incompatible with --trace-digest)")
    audit_p.add_argument("--drf", action="store_true",
                         help="also certify the workload data-race-free "
                              "(DAB's weak-determinism precondition)")
    audit_p.set_defaults(fn=cmd_audit)

    chaos_p = sub.add_parser(
        "chaos", help="fuzz seeded fault plans; assert DAB/GPUDet "
                      "determinism survives and corruption is detected")
    chaos_p.add_argument("--workload", default="order-sensitive:256")
    chaos_p.add_argument("--preset", default="tiny", choices=list(GPU_PRESETS))
    chaos_p.add_argument("--seeds", type=int, default=10, metavar="N",
                         help="number of sampled fault plans (seeds 1..N)")
    chaos_p.add_argument("--seed", type=int, default=1,
                         help="jitter seed held fixed across the campaign")
    chaos_p.add_argument("--corrupt-seed", type=int, default=7,
                         help="fault seed for the drop/dup detection probes")
    chaos_p.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for the campaign")
    chaos_p.add_argument("--journal", metavar="DIR", default=None,
                         help="private result-cache directory for the "
                              "campaign; a killed campaign rerun with the "
                              "same DIR resumes")
    chaos_p.set_defaults(fn=cmd_chaos_dispatch)
    chaos_sub = chaos_p.add_subparsers(dest="chaos_command", metavar="{host}")
    host_p = chaos_sub.add_parser(
        "host", help="host-fault harness: kill/SIGSTOP workers, corrupt "
                     "stores, fill the disk; assert byte-identical "
                     "recovery or loud, classified failure")
    # Distinct dests: the parent ``chaos`` flags (--seed, --jobs) are
    # parsed first and would mask same-dest subparser defaults.
    host_p.add_argument("--seed", type=int, default=0, dest="host_seed",
                        help="host-fault plan seed (numpy substreams "
                             "per fault site)")
    host_p.add_argument("--workdir", metavar="DIR", default=None,
                        help="directory for stores + the report "
                             "(default: a fresh temp dir)")
    host_p.add_argument("--probes", metavar="CSV", default=None,
                        help="comma-separated probe subset "
                             "(default: stores,rundb,poison,watchdog,enospc)")
    host_p.add_argument("--jobs", type=int, default=2, dest="host_jobs",
                        metavar="N", help="worker processes per probe sweep")
    host_p.add_argument("--timeout", type=float, default=90.0,
                        dest="host_timeout", metavar="S",
                        help="per-job timeout the watchdog must beat")

    check_p = sub.add_parser(
        "check", help="conformance: differential vs oracle, DRF certification")
    check_sub = check_p.add_subparsers(dest="check_command", required=True)
    diff_p = check_sub.add_parser(
        "diff", help="diff workload x architecture matrix against the "
                     "ISA-level reference oracle")
    diff_p.add_argument("--workloads", metavar="CSV", default=None,
                        help="comma-separated subset of "
                             f"{{{','.join(DIFF_WORKLOADS)}}} "
                             "(default: all)")
    diff_p.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the matrix")
    diff_p.add_argument("--seed", type=int, default=1,
                        help="jitter seed for the simulated runs")
    diff_p.add_argument("--json", metavar="PATH", default=None,
                        help="also write the structured report here "
                             "('-' = stdout)")
    diff_p.add_argument("--no-attribution", action="store_true",
                        help="skip traced re-runs that attribute multiset "
                             "mismatches to a first divergent commit cycle")
    diff_p.add_argument("--inject-drop", action="store_true",
                        help="detector self-test: seed a drop-fault and "
                             "require a structured mismatch naming the "
                             "corrupted address")
    diff_p.set_defaults(fn=cmd_check_diff)
    drf_p = check_sub.add_parser(
        "drf", help="certify workloads data-race-free via vector-clock "
                    "happens-before over the access trace")
    drf_p.add_argument("--workload", metavar="CSV", default=None,
                       help="comma-separated workload names "
                            "(default: every preset; 'lock_sum_racy' is "
                            "the seeded negative control, expected RACY)")
    drf_p.set_defaults(fn=cmd_check_drf)
    mc_p = check_sub.add_parser(
        "mc", help="exhaustively model-check micro-kernel warp "
                   "interleavings (stateless, DPOR-pruned): prove DAB "
                   "commit determinism, witness baseline divergence")
    mc_p.add_argument("--workloads", metavar="CSV", default=None,
                      help="comma-separated MC presets (default: every "
                           "non-racy preset; racy negative controls such "
                           "as lock_sum_racy run only when named and exit "
                           f"1); known: {', '.join(MC_WORKLOADS)}")
    mc_p.add_argument("--brute", action="store_true",
                      help="additionally explore without DPOR pruning and "
                           "cross-check terminal-state sets match")
    mc_p.add_argument("--no-dpor", action="store_true",
                      help="brute-force only (no partial-order reduction)")
    mc_p.add_argument("--jobs", type=int, default=1,
                      help="process fan-out across workloads (per-workload "
                           "exploration stays sequential, so interleaving "
                           "counts are jobs-invariant)")
    mc_p.add_argument("--max-interleavings", type=int,
                      default=DEFAULT_MAX_INTERLEAVINGS,
                      help="abort (no partial proof) past this many "
                           "interleavings per exploration")
    mc_p.add_argument("--cert-dir", metavar="DIR", default=None,
                      help="write one repro.mc/v1 JSON certificate per "
                           "workload into DIR")
    mc_p.add_argument("--json", metavar="FILE",
                      help="write the full report list as JSON "
                           "('-' for stdout)")
    mc_p.set_defaults(fn=cmd_check_mc)

    exp_p = sub.add_parser("experiment", help="regenerate one table/figure")
    exp_p.add_argument("name")
    exp_p.add_argument("--quick", action="store_true")
    exp_p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes (default: all CPUs; "
                            "1 = run in-process)")
    exp_p.add_argument("--no-cache", action="store_true",
                       help="skip the content-addressed result cache")
    exp_p.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="result-cache directory "
                            "(default: benchmarks/results/cache)")
    exp_p.set_defaults(fn=cmd_experiment)

    camp_p = sub.add_parser(
        "campaign", help="declarative figure campaigns over the sweep "
                         "engine, recorded in the run database")
    camp_sub = camp_p.add_subparsers(dest="campaign_command", required=True)
    camp_run = camp_sub.add_parser(
        "run", help="run every figure matrix of a campaign yaml; append "
                    "each job (spec, digests, provenance) to the run db")
    camp_run.add_argument("yaml", metavar="CAMPAIGN_YAML",
                          help="a repro.campaign/v1 yaml file "
                               "(see examples/campaigns/)")
    camp_run.add_argument("--db", metavar="PATH", default=None,
                          help="run database "
                               "(default: benchmarks/results/runs.db)")
    camp_run.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="worker processes (default: session config)")
    camp_run.add_argument("--no-cache", action="store_true",
                          help="skip the content-addressed result cache")
    camp_run.add_argument("--cache-dir", metavar="DIR", default=None,
                          help="result-cache directory "
                               "(default: benchmarks/results/cache)")
    camp_run.add_argument("--resilient", action="store_true",
                          help="classify worker failures: retry transient "
                               "deaths, quarantine poison jobs with blame, "
                               "and complete degraded (exit 5) instead of "
                               "dying with the first crasher")
    camp_run.set_defaults(fn=cmd_campaign_run)

    report_p = sub.add_parser(
        "report", help="render the run database into a static HTML "
                       "dashboard (byte-identical across renders)")
    report_p.add_argument("db", nargs="?", default=None,
                          help="run database path "
                               "(default: benchmarks/results/runs.db)")
    report_p.add_argument("--out", metavar="PATH", default=None,
                          help="output HTML path (default: report.html "
                               "next to the db; '-' = stdout)")
    report_p.add_argument("--bench-dir", metavar="DIR", default=None,
                          help="directory holding BENCH_*.json trajectories "
                               "to ingest (default: the db's directory)")
    report_p.add_argument("--no-ingest", action="store_true",
                          help="render without ingesting BENCH_*.json files")
    report_p.set_defaults(fn=cmd_report)

    doctor_p = sub.add_parser(
        "doctor", help="scan/repair artifact stores (cache dirs, run "
                       "dbs); verify every checksum, quarantine "
                       "corruption, print an integrity report")
    doctor_p.add_argument("target", metavar="DIR_OR_FILE",
                          help="a cache directory (such as a chaos "
                               "--journal DIR) or a run database")
    doctor_p.add_argument("--json", metavar="PATH", default=None,
                          help="also write the structured report here "
                               "('-' = stdout)")
    doctor_p.set_defaults(fn=cmd_doctor)

    list_p = sub.add_parser("list", help="list workloads and experiments")
    list_p.set_defaults(fn=cmd_list)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SweepTimeoutError as e:
        print(f"repro: sweep timeout: {e}", file=sys.stderr)
        return EXIT_TIMEOUT
    except SweepWorkerError as e:
        print(f"repro: unrecoverable worker failure: {e}", file=sys.stderr)
        return EXIT_WORKER
    except SimulationError as e:
        print(f"repro: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
