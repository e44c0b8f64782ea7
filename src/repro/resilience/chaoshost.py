"""``repro chaos host``: seeded host-fault harness for the harness.

PR 3's chaos subsystem attacks the *simulated* GPU and asserts DAB
stays bitwise deterministic; this module is its robustness mirror,
aimed at the machinery that serves campaigns.  A
:class:`HostFaultPlan` — the same frozen ``(seed, config)`` idiom as
:class:`repro.faults.FaultPlan`, with independent numpy substreams per
fault site — drives a battery of host-fault probes against real
stores and real worker pools:

* **stores** — run a 2-cell campaign undisturbed, then bit-flip its
  cache entries (offsets drawn from the plan) and re-run: corruption
  must be detected on read, quarantined (never deleted), and the
  recovered run's metrics digest must be byte-identical to the
  undisturbed one;
* **rundb** — corrupt a recorded row in the sqlite history and assert
  the read path flags it (``integrity_ok=False``), the dashboard
  badges it, and ``repro doctor`` names the row;
* **poison** — a job whose workload factory ``os._exit``\\ s its worker
  must be classified deterministic poison after exactly
  :data:`~repro.resilience.ISOLATION_ATTEMPTS` fresh-pool attempts,
  quarantined with blame, and the campaign must complete in recorded
  degraded mode with the quarantined row visible in ``repro report``;
* **watchdog** — a worker that SIGSTOPs itself mid-job must be killed
  and replaced by the heartbeat watchdog long before the per-job
  timeout;
* **enospc** — with the injectable write shim simulating a full disk,
  the sweep must complete with correct results and a loud, counted
  store-write failure.

Every probe either proves recovery is byte-identical or proves the
failure is loud, classified, and blamed — the acceptance contract of
the resilience layer.  The poison/watchdog workload factories rely on
fork start semantics (registry entries inherited by workers), like the
rest of the sweep registry; the watchdog probe is skipped on platforms
without ``/proc``.
"""

from __future__ import annotations

import errno
import json
import sqlite3
import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import GPUConfig
from repro.harness.runner import ArchSpec
from repro.harness.sweep import (
    JobSpec,
    WorkloadRef,
    code_fingerprint,
    run_jobs,
)
from repro.resilience import integrity
from repro.resilience.doctor import diagnose
from repro.resilience.quarantine import ISOLATION_ATTEMPTS, ResilienceContext
from repro.resilience.watchdog import watchdog_supported

# Substream site ids (HostFaultPlan reproducibility contract:
# renumbering changes every schedule).  Id 1 is retired.
SITE_CACHE = 0
SITE_DB = 2
SITE_ENOSPC = 3

#: Probe names, in execution order.
ALL_PROBES = ("stores", "rundb", "poison", "watchdog", "enospc")


@dataclass(frozen=True)
class HostFaultConfig:
    """Which host faults to inject (all, by default)."""

    probes: Tuple[str, ...] = ALL_PROBES
    #: worker processes for the probe sweeps.
    jobs: int = 2
    #: generous per-job timeout the watchdog probe must beat easily.
    timeout: float = 90.0

    def __post_init__(self) -> None:
        unknown = [p for p in self.probes if p not in ALL_PROBES]
        if unknown:
            raise ValueError(
                f"unknown chaos-host probe(s) {unknown}; "
                f"choose from {', '.join(ALL_PROBES)}")


@dataclass(frozen=True)
class HostFaultPlan:
    """One reproducible host-fault schedule: ``(seed, config)``.

    Every byte offset, bit index, and row pick is drawn from an
    independent numpy substream keyed ``[seed, site]``, so re-running
    the same plan replays the exact same corruption.
    """

    seed: int
    config: HostFaultConfig

    def rng(self, site: int) -> np.random.Generator:
        return np.random.default_rng([int(self.seed), site])

    @classmethod
    def sample(cls, seed: int,
               probes: Optional[Tuple[str, ...]] = None) -> "HostFaultPlan":
        return cls(int(seed), HostFaultConfig(
            probes=tuple(probes) if probes is not None else ALL_PROBES))


# ----------------------------------------------------------------------
# The 2-cell campaign (mirror of examples/campaigns/smoke_2cell.yaml,
# built programmatically so the harness has no yaml dependency).
# ----------------------------------------------------------------------

def smoke_specs() -> List[JobSpec]:
    """atomic_sum(48) x {baseline, DAB} on the tiny machine."""
    ref = WorkloadRef("atomic_sum", (48,))
    gpu = GPUConfig.tiny()
    return [JobSpec(ref, ArchSpec.baseline(), gpu=gpu, seed=1),
            JobSpec(ref, ArchSpec.make_dab(), gpu=gpu, seed=1)]


def smoke_campaign(extra_poison: bool = False):
    """The 2-cell campaign as a Campaign object (plus a poison cell)."""
    from repro.campaign.spec import Campaign, CampaignJob, Figure

    specs = smoke_specs()
    jobs = [CampaignJob("atomic_sum_48", "baseline", 1, specs[0]),
            CampaignJob("atomic_sum_48", "DAB", 1, specs[1])]
    if extra_poison:
        poison = JobSpec(WorkloadRef("chaos_host_poison", (16,)),
                         ArchSpec.baseline(), gpu=GPUConfig.tiny(), seed=1)
        jobs.append(CampaignJob("chaos_host_poison", "baseline", 1, poison))
    fig = Figure(name="smoke", title="chaos host: 2-cell smoke",
                 normalize="baseline", jobs=jobs)
    return Campaign(name="chaos_host", description="host-fault probe",
                    figures=[fig])


def metrics_digest(results) -> str:
    """Digest of the *deterministic* surface of a result list.

    Provenance flags (cache hits) and host wall-clock legally
    differ between an undisturbed run and a recovered one; cycles,
    instruction counts, and output/memory digests must not.
    """
    surface = [
        {"cycles": r.cycles, "instructions": r.instructions,
         "output": r.extra.get("output_digest", ""),
         "mem": r.mem_digest}
        for r in results
    ]
    payload = json.dumps(surface, sort_keys=True, separators=(",", ":"))
    return sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Seeded corruption primitives.
# ----------------------------------------------------------------------

def _flip_bit_in_file(path: Path, rng: np.random.Generator) -> int:
    """Flip one plan-chosen bit of ``path``; returns the byte offset."""
    data = bytearray(path.read_bytes())
    offset = int(rng.integers(0, len(data)))
    data[offset] ^= 1 << int(rng.integers(0, 8))
    path.write_bytes(bytes(data))
    return offset


# ----------------------------------------------------------------------
# Probes.
# ----------------------------------------------------------------------

def _probe_stores(plan: HostFaultPlan, work: Path) -> Dict[str, object]:
    cfg = plan.config
    cache_dir = work / "cache"
    specs = smoke_specs()

    baseline = run_jobs(specs, jobs=cfg.jobs, cache=True,
                        cache_dir=str(cache_dir), timeout=cfg.timeout)
    digest0 = metrics_digest(baseline)

    # Corrupt every cache entry, plan-seeded.
    rng = plan.rng(SITE_CACHE)
    flipped = []
    for entry in sorted(cache_dir.rglob("*.json")):
        _flip_bit_in_file(entry, rng)
        flipped.append(str(entry))

    ctx = ResilienceContext()
    recovered = run_jobs(specs, jobs=cfg.jobs, cache=True,
                         cache_dir=str(cache_dir), timeout=cfg.timeout,
                         resilience=ctx)
    digest1 = metrics_digest(recovered)

    # The read path re-sealed every entry it recomputed: the doctor
    # must find the store clean, and so must a second scan.
    doctor1 = diagnose(cache_dir)
    doctor2 = diagnose(cache_dir)
    qdir = integrity.quarantine_dir(cache_dir)
    quarantined = sorted(str(p.name) for p in qdir.iterdir()) \
        if qdir.is_dir() else []
    ok = (digest0 == digest1
          and len(flipped) >= 2
          and len(quarantined) >= 1
          and doctor1["ok"] and doctor2["ok"])
    return {
        "probe": "stores", "ok": ok,
        "digest_undisturbed": digest0, "digest_recovered": digest1,
        "byte_identical": digest0 == digest1,
        "cache_entries_corrupted": len(flipped),
        "cache_quarantined_on_read": ctx.stats.cache_quarantined,
        "quarantine_dir": quarantined,
        "doctor_after_recovery": doctor1,
        "doctor_rescan_clean": doctor2["ok"],
    }


def _probe_rundb(plan: HostFaultPlan, work: Path) -> Dict[str, object]:
    from repro.campaign.html import render_report
    from repro.campaign.rundb import RunDB
    from repro.campaign.runner import run_campaign

    cfg = plan.config
    db_path = work / "runs.db"
    run_campaign(smoke_campaign(), db_path=db_path, jobs=cfg.jobs,
                 cache=True, cache_dir=str(work / "cache"))

    # Simulated bit rot: alter one recorded row's cycles without
    # updating its checksum (raw sqlite — exactly what a flipped disk
    # block inside the row's cell would look like to a reader).
    rng = plan.rng(SITE_DB)
    conn = sqlite3.connect(str(db_path))
    try:
        ids = [r[0] for r in conn.execute("SELECT id FROM runs")]
        victim = int(ids[int(rng.integers(0, len(ids)))])
        conn.execute("UPDATE runs SET cycles = cycles + 1 WHERE id = ?",
                     (victim,))
        conn.commit()
    finally:
        conn.close()

    with RunDB(db_path) as db:
        rows = db.runs()
        flagged = [r.id for r in rows if r.integrity_ok is False]
        report = db.integrity_report()
        html = render_report(db, fingerprint=code_fingerprint())
    doctor = diagnose(db_path)
    ok = (flagged == [victim]
          and report["corrupt"] == [victim]
          and "row corrupt" in html
          and not doctor["ok"])
    return {
        "probe": "rundb", "ok": ok, "corrupted_row": victim,
        "flagged_on_read": flagged, "badge_in_report": "row corrupt" in html,
        "doctor": doctor,
    }


def _probe_poison(plan: HostFaultPlan, work: Path) -> Dict[str, object]:
    from repro.campaign.html import render_report
    from repro.campaign.rundb import RunDB
    from repro.campaign.runner import run_campaign

    cfg = plan.config
    db_path = work / "poison.db"
    ctx = ResilienceContext(quarantine_path=work / "quarantine.jsonl")
    summary = run_campaign(smoke_campaign(extra_poison=True),
                           db_path=db_path, jobs=cfg.jobs, cache=False,
                           resilience=ctx)
    records = ctx.quarantine.records
    with RunDB(db_path) as db:
        qrows = [r for r in db.runs() if r.quarantined]
        html = render_report(db, fingerprint=code_fingerprint())
    ok = (summary.degraded and summary.quarantined == 1
          and len(records) == 1
          and records[0].workload == "chaos_host_poison"
          and records[0].attempts == ISOLATION_ATTEMPTS
          and records[0].kind == "worker-death"
          and len(qrows) == 1 and qrows[0].blame is not None
          and "quarantined" in html)
    return {
        "probe": "poison", "ok": ok,
        "completed_degraded": summary.degraded,
        "quarantined_jobs": summary.quarantined,
        "fresh_pool_attempts": records[0].attempts if records else 0,
        "blame": records[0].to_doc() if records else None,
        "provenance_in_report": "quarantined" in html,
        "good_cells_recorded": summary.jobs - summary.quarantined,
    }


def _probe_watchdog(plan: HostFaultPlan, work: Path) -> Dict[str, object]:
    cfg = plan.config
    if not watchdog_supported():
        return {"probe": "watchdog", "ok": True, "skipped": "no /proc"}
    sentinel = work / "stop-once.sentinel"
    specs = [
        JobSpec(WorkloadRef("chaos_host_stop_once", (str(sentinel), 48)),
                ArchSpec.baseline(), gpu=GPUConfig.tiny(), seed=1),
        JobSpec(WorkloadRef("atomic_sum", (48,)),
                ArchSpec.make_dab(), gpu=GPUConfig.tiny(), seed=1),
    ]
    ctx = ResilienceContext()
    started = time.monotonic()
    results = run_jobs(specs, jobs=2, cache=False, timeout=cfg.timeout,
                       resilience=ctx)
    elapsed = time.monotonic() - started
    ok = (ctx.stats.workers_replaced >= 1
          and all(r is not None for r in results)
          and elapsed < cfg.timeout / 2
          and len(ctx.quarantine) == 0)
    return {
        "probe": "watchdog", "ok": ok,
        "workers_replaced": ctx.stats.workers_replaced,
        "elapsed_s": round(elapsed, 3), "timeout_s": cfg.timeout,
        "timed_out": False, "quarantined": len(ctx.quarantine),
    }


def _probe_enospc(plan: HostFaultPlan, work: Path) -> Dict[str, object]:
    cfg = plan.config
    cache_dir = work / "enospc-cache"
    # The disk "fills" after a plan-chosen number of successful writes.
    budget = {"left": int(plan.rng(SITE_ENOSPC).integers(0, 2))}

    def full_disk(path: Path, nbytes: int) -> None:
        if cache_dir in path.parents or path.parent == cache_dir:
            if budget["left"] <= 0:
                raise OSError(errno.ENOSPC,
                              "No space left on device (simulated)")
            budget["left"] -= 1

    specs = smoke_specs()
    ctx = ResilienceContext()
    with integrity.write_shim(full_disk):
        results = run_jobs(specs, jobs=1, cache=True,
                           cache_dir=str(cache_dir), timeout=cfg.timeout,
                           resilience=ctx)
    digest = metrics_digest(results)
    undisturbed = metrics_digest(run_jobs(specs, jobs=1, cache=False))
    ok = (all(r is not None for r in results)
          and ctx.stats.store_write_errors >= 1
          and digest == undisturbed)
    return {
        "probe": "enospc", "ok": ok,
        "store_write_errors": ctx.stats.store_write_errors,
        "results_correct": digest == undisturbed,
    }


_PROBE_FNS = {
    "stores": _probe_stores,
    "rundb": _probe_rundb,
    "poison": _probe_poison,
    "watchdog": _probe_watchdog,
    "enospc": _probe_enospc,
}


def run_chaos_host(plan: HostFaultPlan, workdir) -> Dict[str, object]:
    """Execute every probe of ``plan`` under ``workdir``; full report.

    The report (``schema: repro.chaos-host/v1``) is machine-readable:
    ``ok`` iff every probe held its assertion, one entry per probe with
    the evidence (digests, quarantine paths, blame records, timings).
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    probes = []
    for name in plan.config.probes:
        sub = workdir / name
        sub.mkdir(parents=True, exist_ok=True)
        probes.append(_PROBE_FNS[name](plan, sub))
    return {
        "schema": "repro.chaos-host/v1",
        "seed": plan.seed,
        "probes_run": list(plan.config.probes),
        "ok": all(p.get("ok") for p in probes),
        "probes": probes,
    }
