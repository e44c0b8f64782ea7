"""repro.campaign — the persistent observability layer *across* runs.

`repro.obs` (DESIGN.md §8) observes one simulation; this package
observes the repository: every sweep job a campaign executes lands in
an append-only sqlite **run database** (:mod:`repro.campaign.rundb`,
schema ``repro.rundb/v1``) together with its canonical spec, content
hashes, digests and provenance flags, so "what did this config score
last week, and did PR N regress it?" is a query instead of an
archaeology project.

Three pieces:

* :mod:`repro.campaign.spec` — declarative campaign files
  (``repro.campaign/v1`` yaml): figures are named job matrices
  (workload x architecture x seed x fault-plan grids) that compile to
  the sweep engine's :class:`~repro.harness.sweep.JobSpec` lists; every
  paper figure of ``harness/experiments.py`` is such a list of matrices;
* :mod:`repro.campaign.runner` — ``repro campaign run <yaml>``: routes
  every figure through :func:`repro.harness.sweep.run_jobs` (parallel,
  cached) and appends each result to the run database from
  the single coordinating process, in submission order — parallel
  campaigns produce byte-identical databases modulo wall-clock columns;
* :mod:`repro.campaign.html` — ``repro report <db>``: a static,
  dependency-free HTML dashboard (inline SVG, no JS frameworks) whose
  bytes are a pure function of the database contents and the current
  code fingerprint — rendering twice, or rendering databases produced
  at different ``--jobs`` levels, yields identical files.

:mod:`repro.campaign.ingest` folds ``BENCH_*.json`` trajectory files
into the database so their history appears in the dashboard instead of
living as orphaned JSON.
"""

from repro.campaign.rundb import (  # noqa: F401
    RUNDB_SCHEMA,
    RunDB,
    RunDBError,
    RunRow,
    default_db_path,
)
from repro.campaign.spec import (  # noqa: F401
    CAMPAIGN_SCHEMA,
    Campaign,
    CampaignError,
    CampaignJob,
    Figure,
    load_campaign,
    parse_campaign,
)
from repro.campaign.runner import CampaignSummary, run_campaign  # noqa: F401
from repro.campaign.html import render_report  # noqa: F401
from repro.campaign.ingest import ingest_bench_dir  # noqa: F401
