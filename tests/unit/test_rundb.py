"""Run-database contract: round-trips, staleness, concurrency, ingest."""

import json
import threading

import pytest

from repro.campaign.ingest import ingest_bench_dir
from repro.campaign.rundb import RUNDB_SCHEMA, RunDB, RunDBError
from repro.config import GPUConfig
from repro.harness.runner import ArchSpec, run_workload
from repro.harness.sweep import JobSpec, WorkloadRef

FP = "a" * 64


def _spec(seed=1, n=48):
    return JobSpec(WorkloadRef("atomic_sum", (n,)), ArchSpec.baseline(),
                   gpu=GPUConfig.tiny(), seed=seed)


def _record(db, spec, *, campaign="c", figure="f", job_index=0,
            fingerprint=FP, arch=None):
    res = run_workload(spec.workload, spec.arch, gpu_config=spec.gpu,
                       seed=spec.seed)
    return db.record_run(campaign=campaign, figure=figure,
                         job_index=job_index, workload="atomic_sum",
                         arch=arch, spec=spec, result=res,
                         fingerprint=fingerprint), res


class TestRoundTrip:
    def test_append_and_read_back(self, tmp_path):
        spec = _spec()
        with RunDB(tmp_path / "runs.db") as db:
            row_id, res = _record(db, spec, arch="base")
            rows = db.runs()
        assert len(rows) == 1
        row = rows[0]
        assert row.id == row_id
        assert (row.campaign, row.figure, row.workload, row.arch) == \
            ("c", "f", "atomic_sum", "base")
        assert row.seed == 1
        assert row.cycles == res.cycles
        assert row.instructions == res.instructions
        assert row.spec == spec.canonical()
        assert row.spec_hash == spec.spec_hash()
        assert row.output_digest == res.extra["output_digest"]
        assert row.mem_digest == res.mem_digest
        assert row.wall_s > 0.0
        assert row.metrics["cycles"] == res.cycles
        assert not (row.cache_hit or row.journal_hit or row.serial_fallback)
        assert row.fault_plan is None

    def test_arch_defaults_to_result_label(self, tmp_path):
        with RunDB(tmp_path / "runs.db") as db:
            _record(db, _spec())
            assert db.runs()[0].arch == "baseline"

    def test_provenance_flags_round_trip(self, tmp_path):
        spec = _spec()
        res = run_workload(spec.workload, spec.arch, gpu_config=spec.gpu)
        res.extra["cache_hit"] = True
        res.extra["serial_fallback"] = True
        with RunDB(tmp_path / "runs.db") as db:
            db.record_run(campaign="c", figure="f", job_index=0,
                          workload="w", spec=spec, result=res,
                          fingerprint=FP)
            row = db.runs()[0]
        assert row.cache_hit and row.serial_fallback and not row.journal_hit

    def test_previous_run_matches_spec_hash_only(self, tmp_path):
        with RunDB(tmp_path / "runs.db") as db:
            _record(db, _spec(seed=1))
            _record(db, _spec(seed=2))       # different spec_hash
            _record(db, _spec(seed=1))       # second run of the first spec
            rows = db.runs()
            assert db.previous_run(rows[0]) is None
            assert db.previous_run(rows[1]) is None
            prev = db.previous_run(rows[2])
        assert prev is not None and prev.id == rows[0].id

    def test_figures_upsert(self, tmp_path):
        with RunDB(tmp_path / "runs.db") as db:
            db.record_figure("c", "f", title="old", normalize="")
            db.record_figure("c", "f", title="new", normalize="baseline")
            meta = db.figures()
        assert meta[("c", "f")] == {"title": "new", "normalize": "baseline"}


class TestStaleness:
    def test_stale_rows_flagged_not_silently_reused(self, tmp_path):
        """Rows from other code fingerprints stay queryable but report
        stale() — the dashboard badges them; nothing treats them as
        current-code results."""
        with RunDB(tmp_path / "runs.db") as db:
            _record(db, _spec(), fingerprint="b" * 64)
            row = db.runs()[0]
        assert row.stale(FP) is True           # produced by other code
        assert row.stale("b" * 64) is False    # its own fingerprint

    def test_schema_guard(self, tmp_path):
        path = tmp_path / "runs.db"
        with RunDB(path) as db:
            conn = db._require()
            with conn:
                conn.execute("UPDATE meta SET value = 'repro.rundb/v9'"
                             " WHERE key = 'schema'")
        with pytest.raises(RunDBError, match=RUNDB_SCHEMA.replace("/", "/")):
            RunDB(path)

    def test_closed_handle_raises(self, tmp_path):
        db = RunDB(tmp_path / "runs.db")
        db.close()
        with pytest.raises(RunDBError, match="closed"):
            db.runs()


class TestConcurrency:
    def test_concurrent_appends_all_land(self, tmp_path):
        """Several writers on the same file: sqlite serializes them; no
        row is lost and ids stay a gap-free append order."""
        path = tmp_path / "runs.db"
        spec = _spec()
        res = run_workload(spec.workload, spec.arch, gpu_config=spec.gpu)
        errors = []

        def writer(k):
            try:
                with RunDB(path) as db:
                    for i in range(5):
                        db.record_run(campaign=f"t{k}", figure="f",
                                      job_index=i, workload="w", spec=spec,
                                      result=res, fingerprint=FP)
            except Exception as e:  # noqa: BLE001 - collected for assert
                errors.append(e)

        threads = [threading.Thread(target=writer, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        with RunDB(path) as db:
            rows = db.runs()
        assert len(rows) == 20
        assert [r.id for r in rows] == sorted(r.id for r in rows)


class TestBenchIngest:
    def _write(self, path, runs, schema="repro.bench_hotloop/v1"):
        path.write_text(json.dumps({"schema": schema, "runs": runs}))

    def test_ingest_is_idempotent(self, tmp_path):
        bench = tmp_path / "bench"
        bench.mkdir()
        self._write(bench / "BENCH_hotloop.json",
                    [{"geomean": {"DAB": 2.0}}, {"geomean": {"DAB": 2.1}}])
        with RunDB(tmp_path / "runs.db") as db:
            assert ingest_bench_dir(db, bench) == {"hotloop": 2}
            assert ingest_bench_dir(db, bench) == {"hotloop": 0}
            assert len(db.bench_runs("hotloop")) == 2

    def test_grown_file_adds_only_the_tail(self, tmp_path):
        bench = tmp_path / "bench"
        bench.mkdir()
        runs = [{"geomean": {"DAB": 2.0}}]
        self._write(bench / "BENCH_hotloop.json", runs)
        with RunDB(tmp_path / "runs.db") as db:
            assert ingest_bench_dir(db, bench) == {"hotloop": 1}
            runs.append({"geomean": {"DAB": 2.2}})
            self._write(bench / "BENCH_hotloop.json", runs)
            assert ingest_bench_dir(db, bench) == {"hotloop": 1}
            entries = [b["entry"] for b in db.bench_runs("hotloop")]
        assert entries == runs

    def test_malformed_and_mistagged_files_skipped(self, tmp_path):
        bench = tmp_path / "bench"
        bench.mkdir()
        (bench / "BENCH_hotloop.json").write_text("{not json")
        with RunDB(tmp_path / "runs.db") as db:
            assert ingest_bench_dir(db, bench) == {}

    def test_unknown_bench_file_uses_stem_source(self, tmp_path):
        bench = tmp_path / "bench"
        bench.mkdir()
        self._write(bench / "BENCH_custom.json", [{"v": 1}],
                    schema="whatever/v1")
        with RunDB(tmp_path / "runs.db") as db:
            assert ingest_bench_dir(db, bench) == {"custom": 1}


class TestIntegrityAndMigration:
    """v2 self-verification: row checksums, quarantined rows, v1 uplift."""

    def _make_v1_db(self, path):
        """A pre-resilience database: v1 schema tag, no sealed columns."""
        import sqlite3

        conn = sqlite3.connect(str(path))
        with conn:
            conn.executescript("""
                CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
                CREATE TABLE runs (
                    id INTEGER PRIMARY KEY AUTOINCREMENT,
                    campaign TEXT NOT NULL, figure TEXT NOT NULL,
                    job_index INTEGER NOT NULL, workload TEXT NOT NULL,
                    arch TEXT NOT NULL, seed INTEGER NOT NULL,
                    spec TEXT NOT NULL, spec_hash TEXT NOT NULL,
                    fingerprint TEXT NOT NULL, cycles INTEGER NOT NULL,
                    instructions INTEGER NOT NULL, wall_s REAL NOT NULL,
                    output_digest TEXT NOT NULL DEFAULT '',
                    mem_digest TEXT NOT NULL DEFAULT '',
                    trace_digest TEXT NOT NULL DEFAULT '',
                    fault_plan TEXT,
                    cache_hit INTEGER NOT NULL DEFAULT 0,
                    journal_hit INTEGER NOT NULL DEFAULT 0,
                    serial_fallback INTEGER NOT NULL DEFAULT 0,
                    metrics TEXT NOT NULL, created_at REAL NOT NULL);
                INSERT INTO meta (key, value)
                    VALUES ('schema', 'repro.rundb/v1');
                INSERT INTO runs (campaign, figure, job_index, workload,
                                  arch, seed, spec, spec_hash, fingerprint,
                                  cycles, instructions, wall_s, metrics,
                                  created_at)
                    VALUES ('c', 'f', 0, 'w', 'baseline', 1, '{}',
                            'h', 'a', 100, 50, 0.1, '{}', 0.0);
            """)
        conn.close()

    def test_v1_migrates_in_place_and_keeps_rows(self, tmp_path):
        path = tmp_path / "runs.db"
        self._make_v1_db(path)
        with RunDB(path) as db:
            rows = db.runs()
            assert len(rows) == 1
            # Legacy row: unverified (no checksum), never flagged corrupt.
            assert rows[0].integrity_ok is None
            assert not rows[0].quarantined and rows[0].blame is None
            report = db.integrity_report()
            assert report["unsealed"] == 1 and report["corrupt"] == []
            # The migrated db records sealed rows from here on.
            _record(db, _spec(), job_index=1)
            rows = db.runs()
            assert rows[1].integrity_ok is True
        # Schema tag was rewritten: a re-open is a plain v2 open.
        with RunDB(path) as db:
            assert len(db.runs()) == 2

    def test_half_applied_migration_completes(self, tmp_path):
        import sqlite3

        path = tmp_path / "runs.db"
        self._make_v1_db(path)
        conn = sqlite3.connect(str(path))
        with conn:  # simulate a crash after the first ALTER
            conn.execute("ALTER TABLE runs ADD COLUMN quarantined"
                         " INTEGER NOT NULL DEFAULT 0")
        conn.close()
        with RunDB(path) as db:
            assert db.runs()[0].integrity_ok is None

    def test_row_checksum_flags_bit_rot(self, tmp_path):
        import sqlite3

        path = tmp_path / "runs.db"
        with RunDB(path) as db:
            _record(db, _spec())
            assert db.runs()[0].integrity_ok is True
        conn = sqlite3.connect(str(path))
        with conn:
            conn.execute("UPDATE runs SET cycles = cycles + 1")
        conn.close()
        with RunDB(path) as db:
            row = db.runs()[0]
            assert row.integrity_ok is False
            report = db.integrity_report()
            assert report["corrupt"] == [row.id]
            assert report["verified"] == 0

    def test_record_quarantined_round_trips_blame(self, tmp_path):
        spec = _spec()
        blame = {"spec_hash": spec.spec_hash(), "workload": "atomic_sum",
                 "kind": "worker-death", "attempts": 2, "traceback": "tb"}
        with RunDB(tmp_path / "runs.db") as db:
            row_id = db.record_quarantined(
                campaign="c", figure="f", job_index=0,
                workload="atomic_sum", spec=spec, fingerprint=FP,
                blame=blame)
            row = db.runs()[0]
        assert row.id == row_id
        assert row.quarantined and row.blame == blame
        assert row.cycles == 0 and row.metrics == {}
        assert row.integrity_ok is True  # blame rows are sealed too
        assert db.path  # handle object survives close for reporting
