"""Append-only run database (sqlite, schema ``repro.rundb/v2``).

The database is the durable memory of the repository: one row per
executed sweep job, carrying everything needed to re-identify, re-run,
and compare it later —

* the **canonical spec** (the exact :meth:`JobSpec.canonical` document)
  and its content hash ``spec_hash``;
* the **code fingerprint** the result was produced under, so stale rows
  (produced by different simulator code) are *flagged*, never silently
  compared as equals;
* the deterministic outputs (cycles, instructions, output/memory/trace
  digests) and the full ``metrics_dict`` document;
* host wall-clock seconds (throughput history — never part of any
  determinism surface);
* sweep **provenance flags**: ``cache_hit`` / ``journal_hit`` /
  ``serial_fallback`` / ``quarantined`` (a poison job recorded with
  structured ``blame`` instead of a result — degraded mode is part of
  the history, never hidden);
* a per-row **integrity checksum** (sha256 over the row's content
  columns), recomputed on every read: bit rot in the database file is
  detected and flagged (``RunRow.integrity_ok``), never silently
  served as a real result.  Rows written by the v1 schema carry no
  checksum and read back as *unverified* (``integrity_ok=None``).

Write discipline — the **single-writer contract**: within one campaign
the runner process is the only writer; worker processes return results
to the coordinator, which appends rows in submission order, each in
its own transaction.  Cross-process, sqlite serializes concurrent
writers (different campaigns appending to the same file) with
database-level locking, so appends are atomic and the table is always
a consistent prefix.  Every connection sets ``PRAGMA busy_timeout`` so
a concurrent ``repro report`` reader waits out a writer's transaction
instead of surfacing ``database is locked`` to the user; writers
likewise queue behind each other up to the timeout rather than fail
spuriously.

The ``bench`` table holds ingested ``BENCH_*.json`` trajectory entries
(:mod:`repro.campaign.ingest`), deduplicated by content hash so ingest
is idempotent.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.resilience import integrity as _integrity

#: Schema tag pinned in the ``meta`` table; bump on layout changes.
#: v2: quarantined/blame provenance + per-row integrity checksums.
RUNDB_SCHEMA = "repro.rundb/v2"

#: Schema tags this reader migrates in place (append-only: migration
#: only ever ADDs columns, existing rows are never rewritten).
_MIGRATABLE = ("repro.rundb/v1",)

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id              INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign        TEXT NOT NULL,
    figure          TEXT NOT NULL,
    job_index       INTEGER NOT NULL,
    workload        TEXT NOT NULL,
    arch            TEXT NOT NULL,
    seed            INTEGER NOT NULL,
    spec            TEXT NOT NULL,
    spec_hash       TEXT NOT NULL,
    fingerprint     TEXT NOT NULL,
    cycles          INTEGER NOT NULL,
    instructions    INTEGER NOT NULL,
    wall_s          REAL NOT NULL,
    output_digest   TEXT NOT NULL DEFAULT '',
    mem_digest      TEXT NOT NULL DEFAULT '',
    trace_digest    TEXT NOT NULL DEFAULT '',
    fault_plan      TEXT,
    cache_hit       INTEGER NOT NULL DEFAULT 0,
    journal_hit     INTEGER NOT NULL DEFAULT 0,
    serial_fallback INTEGER NOT NULL DEFAULT 0,
    quarantined     INTEGER NOT NULL DEFAULT 0,
    blame           TEXT,
    metrics         TEXT NOT NULL,
    created_at      REAL NOT NULL,
    integrity       TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS runs_spec_hash ON runs (spec_hash, id);
CREATE INDEX IF NOT EXISTS runs_figure ON runs (campaign, figure, id);
CREATE TABLE IF NOT EXISTS figures (
    campaign  TEXT NOT NULL,
    figure    TEXT NOT NULL,
    title     TEXT NOT NULL DEFAULT '',
    normalize TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (campaign, figure)
);
CREATE TABLE IF NOT EXISTS bench (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    source     TEXT NOT NULL,
    run_index  INTEGER NOT NULL,
    entry      TEXT NOT NULL,
    entry_hash TEXT NOT NULL,
    created_at REAL NOT NULL,
    UNIQUE (source, run_index, entry_hash)
);
"""


class RunDBError(RuntimeError):
    """Run-database misuse: wrong schema, closed handle, bad row."""


def default_db_path() -> Path:
    """``benchmarks/results/runs.db`` (env-overridable, cache-dir idiom)."""
    env = os.environ.get("REPRO_RUNDB_PATH")
    if env:
        return Path(env)
    root = Path(__file__).resolve().parents[3]
    if (root / "benchmarks").is_dir():
        return root / "benchmarks" / "results" / "runs.db"
    return Path.cwd() / "runs.db"


@dataclass(frozen=True)
class RunRow:
    """One recorded sweep job, reconstructed from the database."""

    id: int
    campaign: str
    figure: str
    job_index: int
    workload: str
    arch: str
    seed: int
    spec: Dict[str, object]
    spec_hash: str
    fingerprint: str
    cycles: int
    instructions: int
    wall_s: float
    output_digest: str
    mem_digest: str
    trace_digest: str
    fault_plan: Optional[Dict[str, object]]
    cache_hit: bool
    journal_hit: bool
    serial_fallback: bool
    metrics: Dict[str, object] = field(repr=False)
    created_at: float = 0.0
    #: True when this slot's job was classified poison and quarantined
    #: (the row records blame, not a result — cycles/metrics are empty).
    quarantined: bool = False
    #: structured blame ``{spec_hash, workload, kind, traceback, ...}``.
    blame: Optional[Dict[str, object]] = None
    #: row checksum verdict: True verified, False CORRUPT (bit rot in
    #: the db file), None unverified (row predates sealed rows).
    integrity_ok: Optional[bool] = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def stale(self, fingerprint: str) -> bool:
        """True when this row was produced by *different* simulator code.

        Stale rows stay in the history (they are the perf trajectory)
        but must never be treated as interchangeable with current-code
        results — the dashboard badges them and regression deltas name
        the fingerprint transition explicitly.
        """
        return self.fingerprint != fingerprint


class RunDB:
    """Append-only sqlite run database (single connection, any thread
    may open its own :class:`RunDB` on the same path)."""

    def __init__(self, path, timeout: float = 30.0) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path), timeout=timeout)
        # Readers and writers alike wait out a concurrent transaction
        # instead of surfacing "database is locked" (single-writer
        # contract: see the module docstring).
        self._conn.execute("PRAGMA busy_timeout = %d" % int(timeout * 1000))
        with self._conn:
            self._conn.executescript(_TABLES)
            cur = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema'")
            row = cur.fetchone()
            if row is None:
                # Another handle opening the same new file may insert
                # the tag between the SELECT and here.
                self._conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value)"
                    " VALUES ('schema', ?)", (RUNDB_SCHEMA,))
            elif row[0] in _MIGRATABLE:
                self._migrate(row[0])
            elif row[0] != RUNDB_SCHEMA:
                raise RunDBError(
                    f"{self.path} has schema {row[0]!r}, "
                    f"this reader supports {RUNDB_SCHEMA!r}")

    def _migrate(self, from_schema: str) -> None:
        """In-place v1 -> v2: ADD the new columns, keep every row.

        Additive only — old rows are never rewritten (their empty
        ``integrity`` reads back as *unverified*, not corrupt).  Column
        presence is probed directly so a half-applied migration (crash
        between ALTERs) completes instead of failing.
        """
        have = {r[1] for r in
                self._conn.execute("PRAGMA table_info(runs)").fetchall()}
        for col, ddl in (
            ("quarantined",
             "ALTER TABLE runs ADD COLUMN quarantined"
             " INTEGER NOT NULL DEFAULT 0"),
            ("blame", "ALTER TABLE runs ADD COLUMN blame TEXT"),
            ("integrity",
             "ALTER TABLE runs ADD COLUMN integrity"
             " TEXT NOT NULL DEFAULT ''"),
        ):
            if col not in have:
                self._conn.execute(ddl)
        self._conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema'",
            (RUNDB_SCHEMA,))

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "RunDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _require(self) -> sqlite3.Connection:
        if self._conn is None:
            raise RunDBError("run database is closed")
        return self._conn

    # ------------------------------------------------------------------
    # Appends (each its own transaction: atomic, durable, ordered).
    # ------------------------------------------------------------------

    #: content columns, in insert order; the per-row checksum is the
    #: sha256 over exactly these values (``id`` is sqlite's, excluded).
    _CONTENT_COLS = (
        "campaign", "figure", "job_index", "workload", "arch", "seed",
        "spec", "spec_hash", "fingerprint", "cycles", "instructions",
        "wall_s", "output_digest", "mem_digest", "trace_digest",
        "fault_plan", "cache_hit", "journal_hit", "serial_fallback",
        "quarantined", "blame", "metrics", "created_at",
    )

    @classmethod
    def _row_checksum(cls, values: Tuple) -> str:
        """Checksum of one row's content columns (write and read sides)."""
        return _integrity.content_checksum(
            dict(zip(cls._CONTENT_COLS, values)))

    def _insert_run(self, values: Tuple) -> int:
        conn = self._require()
        cols = ", ".join(self._CONTENT_COLS) + ", integrity"
        marks = ",".join("?" * (len(self._CONTENT_COLS) + 1))
        with conn:
            cur = conn.execute(
                f"INSERT INTO runs ({cols}) VALUES ({marks})",
                values + (self._row_checksum(values),))
        return int(cur.lastrowid)

    def record_run(self, *, campaign: str, figure: str, job_index: int,
                   workload: str, spec, result, fingerprint: str,
                   arch: Optional[str] = None,
                   created_at: Optional[float] = None) -> int:
        """Append one completed sweep job; returns the new row id.

        ``spec`` is a :class:`~repro.harness.sweep.JobSpec`; ``result``
        a :class:`~repro.sim.results.SimResult`.  ``arch`` defaults to
        the result's architecture label.  Everything recorded is
        derived here so every writer stores the same shape.
        """
        metrics = result.metrics_dict()
        extra = dict(metrics.get("extra", {}))
        fault_plan = None
        if spec.faults is not None:
            from repro.harness.sweep import _plain

            fault_plan = json.dumps(
                {"seed": spec.fault_seed, "config": _plain(spec.faults)},
                sort_keys=True, separators=(",", ":"))
        return self._insert_run((
            campaign, figure, int(job_index), workload,
            arch if arch is not None else result.label,
            int(spec.seed),
            json.dumps(spec.canonical(), sort_keys=True,
                       separators=(",", ":")),
            spec.spec_hash(), fingerprint,
            int(result.cycles), int(result.instructions),
            float(result.wall_s),
            str(extra.get("output_digest", "")),
            str(result.mem_digest),
            str(dict(metrics.get("trace", {})).get("digest", "")),
            fault_plan,
            int(bool(extra.get("cache_hit"))),
            int(bool(extra.get("journal_hit"))),
            int(bool(extra.get("serial_fallback"))),
            0, None,
            json.dumps(metrics, sort_keys=True, separators=(",", ":")),
            time.time() if created_at is None else created_at,
        ))

    def record_quarantined(self, *, campaign: str, figure: str,
                           job_index: int, workload: str, spec,
                           fingerprint: str, blame: Dict[str, object],
                           arch: str = "",
                           created_at: Optional[float] = None) -> int:
        """Append the blame row for a quarantined (poison) job.

        The slot's place in the campaign history is preserved — with
        ``quarantined=1``, structured ``blame``, and *no* result (zero
        cycles, empty digests) — so a degraded campaign is explicitly
        recorded rather than silently shortened.
        """
        return self._insert_run((
            campaign, figure, int(job_index), workload, arch,
            int(spec.seed),
            json.dumps(spec.canonical(), sort_keys=True,
                       separators=(",", ":")),
            spec.spec_hash(), fingerprint,
            0, 0, 0.0, "", "", "", None, 0, 0, 0,
            1,
            json.dumps(dict(blame), sort_keys=True, separators=(",", ":")),
            "{}",
            time.time() if created_at is None else created_at,
        ))

    def record_figure(self, campaign: str, figure: str, title: str = "",
                      normalize: str = "") -> None:
        """Pin a figure's display metadata (idempotent upsert)."""
        conn = self._require()
        with conn:
            conn.execute(
                "INSERT INTO figures (campaign, figure, title, normalize)"
                " VALUES (?,?,?,?)"
                " ON CONFLICT (campaign, figure)"
                " DO UPDATE SET title = excluded.title,"
                "               normalize = excluded.normalize",
                (campaign, figure, title, normalize))

    def record_bench(self, source: str, run_index: int, entry: dict,
                     created_at: Optional[float] = None) -> bool:
        """Append one bench-trajectory entry; False when already stored.

        The ``(source, run_index, entry_hash)`` unique key makes ingest
        idempotent: re-reading an unchanged ``BENCH_*.json`` inserts
        nothing, while a grown file contributes only its new tail.
        """
        conn = self._require()
        text = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        with conn:
            cur = conn.execute(
                "INSERT OR IGNORE INTO bench"
                " (source, run_index, entry, entry_hash, created_at)"
                " VALUES (?,?,?,?,?)",
                (source, int(run_index), text, digest,
                 time.time() if created_at is None else created_at))
        return cur.rowcount > 0

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------

    _RUN_COLS = ("id, campaign, figure, job_index, workload, arch, seed,"
                 " spec, spec_hash, fingerprint, cycles, instructions,"
                 " wall_s, output_digest, mem_digest, trace_digest,"
                 " fault_plan, cache_hit, journal_hit, serial_fallback,"
                 " quarantined, blame, metrics, created_at, integrity")

    @classmethod
    def _row(cls, t: Tuple) -> RunRow:
        # Recompute the content checksum over the raw column values —
        # exactly what the write side hashed.  '' = legacy v1 row
        # (unverified), mismatch = bit rot (flagged, never hidden).
        stamp = t[24]
        ok = None if stamp == "" else (cls._row_checksum(t[1:24]) == stamp)
        return RunRow(
            id=int(t[0]), campaign=t[1], figure=t[2], job_index=int(t[3]),
            workload=t[4], arch=t[5], seed=int(t[6]),
            spec=json.loads(t[7]), spec_hash=t[8], fingerprint=t[9],
            cycles=int(t[10]), instructions=int(t[11]), wall_s=float(t[12]),
            output_digest=t[13], mem_digest=t[14], trace_digest=t[15],
            fault_plan=json.loads(t[16]) if t[16] else None,
            cache_hit=bool(t[17]), journal_hit=bool(t[18]),
            serial_fallback=bool(t[19]), quarantined=bool(t[20]),
            blame=json.loads(t[21]) if t[21] else None,
            metrics=json.loads(t[22]),
            created_at=float(t[23]), integrity_ok=ok,
        )

    def runs(self, campaign: Optional[str] = None,
             figure: Optional[str] = None,
             spec_hash: Optional[str] = None) -> List[RunRow]:
        """All matching rows in append (id) order."""
        conn = self._require()
        clauses, params = [], []
        for col, val in (("campaign", campaign), ("figure", figure),
                         ("spec_hash", spec_hash)):
            if val is not None:
                clauses.append(f"{col} = ?")
                params.append(val)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        cur = conn.execute(
            f"SELECT {self._RUN_COLS} FROM runs{where} ORDER BY id", params)
        return [self._row(t) for t in cur.fetchall()]

    def previous_run(self, row: RunRow) -> Optional[RunRow]:
        """Latest earlier row with the same spec_hash (regression base)."""
        conn = self._require()
        cur = conn.execute(
            f"SELECT {self._RUN_COLS} FROM runs"
            " WHERE spec_hash = ? AND id < ? ORDER BY id DESC LIMIT 1",
            (row.spec_hash, row.id))
        t = cur.fetchone()
        return self._row(t) if t is not None else None

    def figures(self) -> Dict[Tuple[str, str], Dict[str, str]]:
        """(campaign, figure) -> {"title": ..., "normalize": ...}."""
        conn = self._require()
        cur = conn.execute(
            "SELECT campaign, figure, title, normalize FROM figures")
        return {(c, f): {"title": t, "normalize": n}
                for c, f, t, n in cur.fetchall()}

    def bench_runs(self, source: Optional[str] = None) -> List[Dict]:
        """Ingested trajectory entries, ordered by (source, run_index)."""
        conn = self._require()
        if source is None:
            cur = conn.execute(
                "SELECT source, run_index, entry FROM bench"
                " ORDER BY source, run_index, id")
        else:
            cur = conn.execute(
                "SELECT source, run_index, entry FROM bench"
                " WHERE source = ? ORDER BY run_index, id", (source,))
        return [{"source": s, "run_index": int(i), "entry": json.loads(e)}
                for s, i, e in cur.fetchall()]

    def counts(self) -> Dict[str, int]:
        conn = self._require()
        n_runs = conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
        n_bench = conn.execute("SELECT COUNT(*) FROM bench").fetchone()[0]
        return {"runs": int(n_runs), "bench": int(n_bench)}

    # ------------------------------------------------------------------
    # Integrity (the `repro doctor` surface).
    # ------------------------------------------------------------------

    def integrity_report(self) -> Dict[str, object]:
        """Verify every row's checksum; the db's `repro doctor` verdict.

        Rows are append-only history, so corruption is *reported*, not
        repaired in place — ``corrupt`` lists the row ids whose stored
        checksum no longer matches their content (the rows a rerun must
        not trust), ``unsealed`` counts legacy v1 rows with no checksum.
        """
        report = {"rows": 0, "verified": 0, "unsealed": 0,
                  "corrupt": [], "quarantined": 0}
        for row in self.runs():
            report["rows"] += 1
            if row.quarantined:
                report["quarantined"] += 1
            if row.integrity_ok is None:
                report["unsealed"] += 1
            elif row.integrity_ok:
                report["verified"] += 1
            else:
                report["corrupt"].append(row.id)
        return report
