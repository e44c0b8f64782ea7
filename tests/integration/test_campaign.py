"""End-to-end campaign service: CLI runs, replay provenance, and the
dashboard's byte-determinism guarantees."""

import json

import pytest

from repro.campaign import (
    RunDB,
    load_campaign,
    render_report,
    run_campaign,
)
from repro.cli import main

FP = "c" * 64

CAMPAIGN_YAML = """\
schema: repro.campaign/v1
campaign: itest
defaults:
  preset: tiny
  seeds: [1]
figures:
  - name: smoke
    title: "Integration smoke"
    normalize: baseline
    workloads:
      - {name: atomic_sum_48, factory: atomic_sum, args: [48]}
    archs:
      - {name: baseline, kind: baseline}
      - {name: DAB, kind: dab}
"""


@pytest.fixture()
def campaign_yaml(tmp_path):
    path = tmp_path / "itest.yaml"
    path.write_text(CAMPAIGN_YAML)
    return path


def _render(db_path):
    with RunDB(db_path) as db:
        return render_report(db, fingerprint=FP)


class TestCampaignRun:
    def test_cli_run_records_every_job(self, campaign_yaml, tmp_path,
                                       capsys):
        db_path = tmp_path / "runs.db"
        rc = main(["campaign", "run", str(campaign_yaml),
                   "--db", str(db_path), "--jobs", "1", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 job(s) recorded" in out
        with RunDB(db_path) as db:
            rows = db.runs()
            meta = db.figures()
        assert [(r.workload, r.arch) for r in rows] == \
            [("atomic_sum_48", "baseline"), ("atomic_sum_48", "DAB")]
        assert all(r.output_digest and r.spec_hash for r in rows)
        assert meta[("itest", "smoke")]["normalize"] == "baseline"

    def test_warm_rerun_replays_from_cache(self, campaign_yaml, tmp_path):
        camp = load_campaign(campaign_yaml)
        db_path = tmp_path / "runs.db"
        cache_dir = tmp_path / "cache"
        cold = run_campaign(camp, db_path=db_path, jobs=1,
                            cache=True, cache_dir=str(cache_dir))
        warm = run_campaign(camp, db_path=db_path, jobs=1,
                            cache=True, cache_dir=str(cache_dir))
        assert cold.simulated == 2 and cold.cache_hits == 0
        assert warm.all_replayed and warm.cache_hits == 2
        with RunDB(db_path) as db:
            rows = db.runs()
        assert [r.cache_hit for r in rows] == [False, False, True, True]
        # Replayed rows carry the same deterministic outputs.
        assert rows[0].output_digest == rows[2].output_digest
        assert rows[0].cycles == rows[2].cycles


class TestReportDeterminism:
    def test_render_twice_is_byte_identical(self, campaign_yaml, tmp_path):
        camp = load_campaign(campaign_yaml)
        db_path = tmp_path / "runs.db"
        run_campaign(camp, db_path=db_path, jobs=1, cache=False)
        assert _render(db_path) == _render(db_path)

    def test_jobs_level_does_not_change_report_bytes(self, campaign_yaml,
                                                     tmp_path):
        camp = load_campaign(campaign_yaml)
        db1 = tmp_path / "j1.db"
        db2 = tmp_path / "j2.db"
        run_campaign(camp, db_path=db1, jobs=1, cache=False)
        run_campaign(camp, db_path=db2, jobs=2, cache=False)
        assert _render(db1) == _render(db2)

    def test_cli_report_twice_identical_files(self, campaign_yaml,
                                              tmp_path, capsys):
        db_path = tmp_path / "runs.db"
        assert main(["campaign", "run", str(campaign_yaml),
                     "--db", str(db_path), "--no-cache"]) == 0
        out1 = tmp_path / "a.html"
        out2 = tmp_path / "b.html"
        assert main(["report", str(db_path), "--out", str(out1),
                     "--no-ingest"]) == 0
        assert main(["report", str(db_path), "--out", str(out2),
                     "--no-ingest"]) == 0
        capsys.readouterr()
        a, b = out1.read_bytes(), out2.read_bytes()
        assert a == b
        html = a.decode("utf-8")
        assert "<svg" in html and "Integration smoke" in html
        assert "bitwise stable" not in html  # single run: no false claim
        assert "atomic_sum_48" in html

    def test_wall_clock_never_rendered(self, campaign_yaml, tmp_path):
        camp = load_campaign(campaign_yaml)
        db_path = tmp_path / "runs.db"
        run_campaign(camp, db_path=db_path, jobs=1, cache=False)
        with RunDB(db_path) as db:
            rows = db.runs()
            html = render_report(db, fingerprint=FP)
        for row in rows:
            assert row.wall_s > 0.0            # recorded in the db...
            assert f"{row.wall_s:.3f}" not in html  # ...but never shown
            assert str(row.created_at) not in html

    def test_second_campaign_shows_deltas_and_badges(self, campaign_yaml,
                                                     tmp_path):
        camp = load_campaign(campaign_yaml)
        db_path = tmp_path / "runs.db"
        run_campaign(camp, db_path=db_path, jobs=1, cache=False)
        run_campaign(camp, db_path=db_path, jobs=1, cache=False)
        html = _render(db_path)
        # Identical spec + code: zero regression delta, stability badges.
        assert "bitwise stable across 2 runs" in html
        assert "first run" not in html  # every cell now has a previous

    def test_stale_rows_badged(self, campaign_yaml, tmp_path):
        camp = load_campaign(campaign_yaml)
        db_path = tmp_path / "runs.db"
        run_campaign(camp, db_path=db_path, jobs=1, cache=False)
        html = _render(db_path)  # FP differs from the real fingerprint
        assert "stale code" in html


class TestBenchInReport:
    def test_report_ingests_bench_dir(self, campaign_yaml, tmp_path,
                                      capsys):
        db_path = tmp_path / "runs.db"
        bench = tmp_path / "bench"
        bench.mkdir()
        (bench / "BENCH_hotloop.json").write_text(json.dumps({
            "schema": "repro.bench_hotloop/v1",
            "runs": [{"geomean": {"baseline": 1.8, "DAB": 2.0,
                                  "GPUDet": 1.9},
                      "headline_dab_geomean": 2.0},
                     {"geomean": {"baseline": 1.9, "DAB": 2.2,
                                  "GPUDet": 2.0},
                      "headline_dab_geomean": 2.2}],
        }))
        assert main(["campaign", "run", str(campaign_yaml),
                     "--db", str(db_path), "--no-cache"]) == 0
        out = tmp_path / "r.html"
        assert main(["report", str(db_path), "--out", str(out),
                     "--bench-dir", str(bench)]) == 0
        capsys.readouterr()
        html = out.read_text()
        assert "Benchmark trajectories" in html
        assert "hotloop (2 run(s))" in html
        # Idempotent: a second report ingests nothing new and renders
        # the same bytes.
        out2 = tmp_path / "r2.html"
        assert main(["report", str(db_path), "--out", str(out2),
                     "--bench-dir", str(bench)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == out2.read_bytes()
        with RunDB(db_path) as db:
            assert db.counts()["bench"] == 2


class TestSectionVCampaigns:
    """``repro audit`` and ``repro chaos`` run as campaigns: their jobs
    land in the run database and the dashboard shows them."""

    @pytest.fixture()
    def db_path(self, tmp_path, monkeypatch):
        path = tmp_path / "runs.db"
        monkeypatch.setenv("REPRO_RUNDB_PATH", str(path))
        return path

    def test_chaos_and_audit_rows_and_report(self, db_path, capsys):
        assert main(["chaos", "--seeds", "3"]) == 0
        assert main(["audit", "--workload", "microbench:64", "--preset",
                     "tiny", "--seeds", "1,2", "--trace-digest"]) == 0
        capsys.readouterr()
        with RunDB(db_path) as db:
            chaos = db.runs(campaign="chaos")
            audit = db.runs(campaign="audit")
            html = render_report(db, fingerprint=FP)
        assert len(chaos) == 9
        assert {r.figure for r in chaos} == {"order-sensitive:256@tiny"}
        assert [(r.arch, r.fault_plan["seed"]) for r in chaos] == [
            (a, p) for a in ("baseline", "DAB", "GPUDet") for p in (1, 2, 3)]
        assert all(r.spec["invariants"] is True and r.seed == 1
                   for r in chaos)
        assert len(audit) == 6
        assert {r.figure for r in audit} == {"microbench:64@tiny"}
        assert [(r.arch, r.seed) for r in audit] == [
            (a, s) for a in ("baseline", "DAB", "GPUDet") for s in (1, 2)]
        assert all(r.fault_plan is None and r.trace_digest for r in audit)
        # One plan column, in the chaos section only, and one table row
        # per (arch, plan) cell.
        chaos_html, audit_html = html.split('id="audit-')
        assert '<th>plan</th>' in chaos_html
        assert '<th>plan</th>' not in audit_html
        assert chaos_html.count("<td>order-sensitive:256</td>") == 9
