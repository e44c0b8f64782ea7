"""``repro campaign run`` and ``repro experiment``: execute a campaign
and persist every job.

Each figure's job matrix goes through the sweep engine
(:func:`repro.harness.sweep.run_jobs` — parallel fan-out and the
content-addressed cache, which is also the resume store), then the
results come back to this process in submission order and are
appended to the run database one transaction at a time.  The
coordinator is the **only writer**: workers never see the database,
so the row order — and therefore the rendered dashboard — is
identical at every ``--jobs`` level.  Wall-clock and ``created_at``
columns are the one exception (they record host time and are never
rendered into determinism surfaces).  Each figure's results also come
back, in job order, on its :class:`FigureSummary` (the paper figures'
reducers read them).  A figure whose sweep fails with a
:class:`~repro.harness.sweep.SweepJobError` still records the jobs that
finished before the error propagates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.campaign.rundb import RunDB, default_db_path
from repro.campaign.spec import Campaign
from repro.harness.report import Table
from repro.harness.sweep import SweepJobError, code_fingerprint, run_jobs
from repro.obs import ObsConfig
from repro.resilience import ResilienceContext
from repro.sim.results import SimResult


@dataclass
class FigureSummary:
    name: str
    jobs: int
    cache_hits: int
    simulated: int
    quarantined: int = 0
    #: the figure's results in job order (None for a quarantined job)
    results: List[Optional[SimResult]] = field(default_factory=list)


@dataclass
class CampaignSummary:
    """What one ``campaign run`` did, ready to print and to assert on."""

    campaign: str
    db_path: Path
    fingerprint: str
    figures: List[FigureSummary] = field(default_factory=list)

    @property
    def jobs(self) -> int:
        return sum(f.jobs for f in self.figures)

    @property
    def cache_hits(self) -> int:
        return sum(f.cache_hits for f in self.figures)

    @property
    def simulated(self) -> int:
        return sum(f.simulated for f in self.figures)

    @property
    def quarantined(self) -> int:
        return sum(f.quarantined for f in self.figures)

    @property
    def degraded(self) -> bool:
        """True when the campaign completed without some of its jobs
        (poison quarantine) — success with an asterisk, never silent."""
        return self.quarantined > 0

    @property
    def all_replayed(self) -> bool:
        """True when every job came from the cache."""
        return self.simulated == 0 and self.jobs > 0

    def table(self) -> Table:
        t = Table(
            f"campaign {self.campaign!r} -> {self.db_path} "
            f"(fingerprint {self.fingerprint[:12]}…)"
            + (f" [DEGRADED: {self.quarantined} job(s) quarantined]"
               if self.degraded else ""),
            ["figure", "jobs", "simulated", "cache hits", "quarantined"],
        )
        for f in self.figures:
            t.add_row(f.name, f.jobs, f.simulated, f.cache_hits,
                      f.quarantined)
        t.add_row("total", self.jobs, self.simulated, self.cache_hits,
                  self.quarantined)
        return t


def run_campaign(
    campaign: Campaign,
    db_path=None,
    jobs: int = 1,
    cache: bool = True,
    cache_dir: Optional[str] = None,
    db: Optional[RunDB] = None,
    resilience: Optional[ResilienceContext] = None,
    obs: Optional[ObsConfig] = None,
) -> CampaignSummary:
    """Run every figure of ``campaign`` and append results to the db.

    ``jobs`` / ``cache`` / ``cache_dir`` / ``obs`` are forwarded to
    :func:`run_jobs`, with its defaults; a killed campaign re-run
    against the same ``cache_dir`` resumes from its finished jobs.
    Pass an open ``db`` to reuse a handle; otherwise ``db_path``
    (default :func:`default_db_path`) is opened for the duration of the
    run.

    ``resilience`` arms failure classification (see
    :func:`run_jobs`): a poison job's slot comes back ``None`` and is
    recorded in the database as a ``quarantined`` row carrying the
    structured blame — the campaign completes in explicitly-recorded
    degraded mode (``summary.degraded``) instead of dying with it.
    Unarmed, a sweep that raises :class:`SweepJobError` has its
    finished jobs recorded, and the error re-raised.
    """
    fingerprint = code_fingerprint()
    own_db = db is None
    if own_db:
        db = RunDB(db_path if db_path is not None else default_db_path())
    summary = CampaignSummary(campaign=campaign.name, db_path=db.path,
                              fingerprint=fingerprint)

    def record_run(figure, index: int, result: SimResult) -> None:
        job = figure.jobs[index]
        db.record_run(
            campaign=campaign.name, figure=figure.name, job_index=index,
            workload=job.workload, arch=job.arch, spec=job.spec,
            result=result, fingerprint=fingerprint,
        )

    try:
        for figure in campaign.figures:
            db.record_figure(campaign.name, figure.name,
                             title=figure.title,
                             normalize=figure.normalize)
            specs = [job.spec for job in figure.jobs]
            try:
                results = run_jobs(specs, jobs=jobs, cache=cache,
                                   cache_dir=cache_dir, obs=obs,
                                   resilience=resilience)
            except SweepJobError as exc:
                # The jobs that finished are history too; a slot that
                # did not finish is no quarantine.
                for index, result in enumerate(exc.results):
                    if result is not None:
                        record_run(figure, index, result)
                raise
            fig_sum = FigureSummary(figure.name, len(specs), 0, 0,
                                    results=results)
            for index, (job, result) in enumerate(zip(figure.jobs, results)):
                if result is None:
                    # Quarantined poison job: record blame, not a result.
                    record = (resilience.quarantine.get(job.spec.spec_hash())
                              if resilience is not None else None)
                    blame = (record.to_doc() if record is not None
                             else {"spec_hash": job.spec.spec_hash(),
                                   "workload": job.workload,
                                   "kind": "unknown", "traceback": ""})
                    fig_sum.quarantined += 1
                    db.record_quarantined(
                        campaign=campaign.name, figure=figure.name,
                        job_index=index, workload=job.workload,
                        arch=job.arch, spec=job.spec,
                        fingerprint=fingerprint, blame=blame,
                    )
                    continue
                if result.extra.get("cache_hit"):
                    fig_sum.cache_hits += 1
                else:
                    fig_sum.simulated += 1
                record_run(figure, index, result)
            summary.figures.append(fig_sum)
    finally:
        if own_db:
            db.close()
    return summary
