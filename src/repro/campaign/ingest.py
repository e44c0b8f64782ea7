"""Fold ``BENCH_*.json`` trajectory files into the run database.

Benchmarks may append their wall-clock trajectories to loose
``BENCH_<name>.json`` files.  ``repro report`` calls
:func:`ingest_bench_dir` before rendering, so that history shows up in
the dashboard instead of living as orphaned artifacts.  Ingest is
idempotent — entries are keyed by ``(source, run_index, entry_hash)``
in the database, so re-reading an unchanged file inserts nothing and a
grown file contributes only its new tail.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

from repro.campaign.rundb import RunDB


def ingest_bench_dir(db: RunDB, directory) -> Dict[str, int]:
    """Ingest every ``BENCH_*.json`` under ``directory``.

    Returns ``{source: newly_inserted_count}``.  Each file is ingested
    under its lower-cased stem (minus the ``BENCH_`` prefix) when it
    follows the common trajectory shape (``{"schema": ..., "runs":
    [...]}``); malformed files are skipped — ingest must never block a
    report.
    """
    directory = Path(directory)
    inserted: Dict[str, int] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue  # unreadable/torn: not this subsystem's problem
        if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
            continue
        source = path.stem[len("BENCH_"):].lower() or path.stem.lower()
        count = 0
        for run_index, entry in enumerate(doc["runs"]):
            if not isinstance(entry, dict):
                continue
            if db.record_bench(source, run_index, entry):
                count += 1
        inserted[source] = inserted.get(source, 0) + count
    return inserted
