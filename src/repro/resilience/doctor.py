"""``repro doctor``: scan and repair every artifact store.

The doctor is the offline half of the self-verifying-store contract:
stores verify lazily (on each read); the doctor verifies *eagerly* —
walk a whole cache directory or run database, quarantine what is
corrupt, and emit one machine-readable report a CI job or an operator
script can branch on.

Repair never destroys evidence: corrupt cache entries move to the
store's ``*.quarantine/`` directory, and run-database rows —
append-only history — are *flagged* in the report, never rewritten.
A run of the doctor is idempotent: a second scan of a repaired store
reports clean.

Report shape (``schema: repro.doctor/v1``)::

    {"schema": ..., "target": ..., "ok": bool, "stores": [
        {"kind": "cache"|"rundb", "path": ..., ...per-kind...}
    ]}

``ok`` is True iff no corruption was found anywhere (staleness — a
foreign schema or an old fingerprint — is not corruption).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

from repro.resilience import integrity

#: Schema tag of the doctor report document.
DOCTOR_SCHEMA = "repro.doctor/v1"


def scan_cache_dir(root) -> Dict[str, object]:
    """Verify every cache entry under ``root``; quarantine corruption.

    Entries are judged by :func:`repro.harness.sweep.read_entry`, the
    engine's own read path: an entry of a *different* sweep-cache
    version is stale, not corrupt (the engine treats it as a miss);
    anything else that does not verify is corrupt and is moved to
    ``<root>.quarantine/`` so the engine recomputes it.
    """
    from repro.harness.sweep import read_entry

    root = Path(root)
    report = {"kind": "cache", "path": str(root), "entries": 0,
              "verified": 0, "stale": 0, "quarantined": []}
    for path in sorted(root.rglob("*.json")):
        report["entries"] += 1
        state = read_entry(path)[0]
        if state == "ok":
            report["verified"] += 1
        elif state == "stale":
            report["stale"] += 1
        else:
            qpath = integrity.quarantine_file(path, root)
            report["quarantined"].append(
                str(qpath) if qpath is not None else str(path))
    return report


def scan_rundb(path) -> Dict[str, object]:
    """Verify every run-database row checksum (rows are never rewritten).

    A database file sqlite itself cannot open is reported as
    unreadable — moving the whole history aside is an operator
    decision, not the doctor's.
    """
    from repro.campaign.rundb import RunDB

    report = {"kind": "rundb", "path": str(path)}
    try:
        with RunDB(path) as db:
            report.update(db.integrity_report())
    except Exception as exc:  # sqlite3.DatabaseError, RunDBError, ...
        report["error"] = f"{type(exc).__name__}: {exc}"
    return report


def _store_ok(store: Dict[str, object]) -> bool:
    if store.get("error"):
        return False
    if store.get("quarantined"):
        return False
    if store.get("corrupt"):
        return False
    return True


def diagnose(target) -> Dict[str, object]:
    """Scan ``target`` (a cache directory or a run database) fully.

    A directory is scanned as a cache store (every ``*.json`` entry
    below it); a file must be a sqlite run database — any other file
    is reported unreadable, never opened as one (sqlite would turn an
    empty file into a fresh database).
    """
    target = Path(target)
    if target.is_dir():
        stores = [scan_cache_dir(target)]
    elif target.is_file():
        with open(target, "rb") as fh:
            magic = fh.read(16)
        if magic.startswith(b"SQLite format 3"):
            stores = [scan_rundb(target)]
        else:
            stores = [{"kind": "rundb", "path": str(target),
                       "error": "not a sqlite run database"}]
    else:
        return {"schema": DOCTOR_SCHEMA, "target": str(target),
                "ok": False, "error": "target does not exist",
                "stores": []}
    return {"schema": DOCTOR_SCHEMA, "target": str(target),
            "ok": all(_store_ok(s) for s in stores), "stores": stores}
