"""Host-fault resilience end to end: poison quarantine, watchdog,
store recovery, and the ``chaos host`` / ``doctor`` CLI surface.

These are the acceptance tests of the resilience tentpole: a
deterministic crasher is quarantined after exactly ISOLATION_ATTEMPTS
fresh-pool attempts while the campaign completes degraded with blame
recorded in the run database; corrupted stores recover byte-identical;
the CLI exit-code contract (3 timeout / 4 worker / 5 degraded) holds.
"""

import json

import pytest

from repro.config import GPUConfig
from repro.harness.runner import ArchSpec
from repro.harness.sweep import JobSpec, WorkloadRef, run_jobs
from repro.resilience.chaoshost import (
    HostFaultConfig,
    HostFaultPlan,
    metrics_digest,
    smoke_campaign,
    smoke_specs,
)
from repro.resilience.quarantine import ISOLATION_ATTEMPTS, ResilienceContext
from repro.resilience.watchdog import watchdog_supported

from .test_cli_errors import run_cli


def _poison_spec():
    return JobSpec(WorkloadRef("chaos_host_poison", (16,)),
                   ArchSpec.baseline(), gpu=GPUConfig.tiny(), seed=1)


class TestPoisonQuarantine:
    def test_poison_job_quarantined_campaign_continues(self, tmp_path):
        from repro.campaign.rundb import RunDB
        from repro.campaign.runner import run_campaign

        ctx = ResilienceContext(quarantine_path=tmp_path / "blame.jsonl")
        summary = run_campaign(smoke_campaign(extra_poison=True),
                               db_path=tmp_path / "runs.db", jobs=2,
                               cache=False, resilience=ctx)
        assert summary.degraded and summary.quarantined == 1
        assert summary.jobs == 3
        [record] = ctx.quarantine.records
        assert record.workload == "chaos_host_poison"
        assert record.kind == "worker-death"
        # The acceptance contract: exactly N fresh-pool attempts, then
        # quarantine — never an endless retry loop.
        assert record.attempts == ISOLATION_ATTEMPTS
        with RunDB(tmp_path / "runs.db") as db:
            rows = db.runs()
            good = [r for r in rows if not r.quarantined]
            bad = [r for r in rows if r.quarantined]
        assert len(good) == 2 and len(bad) == 1
        assert bad[0].blame["kind"] == "worker-death"
        assert bad[0].blame["spec_hash"] == _poison_spec().spec_hash()

    def test_quarantined_spec_skipped_on_rerun(self, tmp_path):
        ctx = ResilienceContext()
        spec = _poison_spec()
        first = run_jobs([spec], jobs=1, cache=False, resilience=ctx)
        assert first == [None]
        attempts_after_first = ctx.stats.isolated_attempts
        # Second sweep with the same context: no new pools are burned.
        second = run_jobs([spec], jobs=1, cache=False, resilience=ctx)
        assert second == [None]
        assert ctx.stats.isolated_attempts == attempts_after_first

    def test_without_resilience_contract_unchanged(self):
        from repro.harness.sweep import SweepWorkerError

        # At jobs=2 every miss runs in a worker, a lone one too: the
        # poison job never runs in *this* process, where it would end
        # the test run.
        for specs in ([smoke_specs()[0], _poison_spec()], [_poison_spec()]):
            with pytest.raises(SweepWorkerError) as ei:
                run_jobs(specs, jobs=2, cache=False)
            [ref] = ei.value.jobs
            assert ref["workload"] == "chaos_host_poison"
            assert ref["spec_hash"] == _poison_spec().spec_hash()
            # The error carries what did finish, in submission order.
            results = ei.value.results
            assert len(results) == len(specs) and results[-1] is None
            assert all(r is not None for r in results[:-1])


@pytest.mark.skipif(not watchdog_supported(), reason="needs /proc")
class TestWatchdog:
    def test_stopped_worker_replaced_without_timeout(self, tmp_path):
        sentinel = tmp_path / "stop-once.sentinel"
        specs = [JobSpec(WorkloadRef("chaos_host_stop_once",
                                     (str(sentinel), 48)),
                         ArchSpec.baseline(), gpu=GPUConfig.tiny(), seed=1)]
        ctx = ResilienceContext()
        results = run_jobs(specs, jobs=2, cache=False, timeout=60,
                           resilience=ctx)
        assert results[0] is not None
        assert ctx.stats.workers_replaced >= 1
        assert len(ctx.quarantine) == 0  # transient, not poison


class TestStoreRecovery:
    def test_cache_corruption_recovers_byte_identical(self, tmp_path):
        self._flip_and_recover(tmp_path, 0x10)

    def test_undecodable_cache_entry_recovers_byte_identical(self, tmp_path):
        # A flipped high bit leaves bytes that are not UTF-8 at all.
        self._flip_and_recover(tmp_path, 0x80)

    @staticmethod
    def _flip_and_recover(tmp_path, mask):
        specs = smoke_specs()
        cache_dir = tmp_path / "cache"
        baseline = run_jobs(specs, jobs=1, cache=True,
                            cache_dir=str(cache_dir))
        entries = sorted(cache_dir.rglob("*.json"))
        assert entries
        for entry in entries:
            data = bytearray(entry.read_bytes())
            data[len(data) // 2] ^= mask
            entry.write_bytes(bytes(data))
        ctx = ResilienceContext()
        recovered = run_jobs(specs, jobs=1, cache=True,
                             cache_dir=str(cache_dir), resilience=ctx)
        assert metrics_digest(recovered) == metrics_digest(baseline)
        assert ctx.stats.cache_quarantined == len(entries)
        qdir = cache_dir.parent / (cache_dir.name + ".quarantine")
        assert len(list(qdir.iterdir())) == len(entries)


class TestChaosHostHarness:
    def test_plan_is_frozen_and_validated(self):
        with pytest.raises(ValueError, match="unknown chaos-host probe"):
            HostFaultConfig(probes=("stores", "nope"))
        plan = HostFaultPlan.sample(3)
        assert plan.seed == 3
        # Substreams are independent and reproducible.
        assert plan.rng(0).integers(0, 1 << 30) \
            == HostFaultPlan.sample(3).rng(0).integers(0, 1 << 30)
        assert plan.rng(0).integers(0, 1 << 30) \
            != plan.rng(1).integers(0, 1 << 30)

    def test_cli_chaos_host_smoke(self, tmp_path):
        # The cheap probes end to end through the real CLI; the full
        # battery (poison + watchdog included) runs in CI's
        # chaos-host-smoke job and via `repro chaos host --seed 0`.
        proc = run_cli("chaos", "host", "--seed", "0",
                       "--probes", "stores,enospc",
                       "--workdir", str(tmp_path), timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "chaos host PASSED" in proc.stdout
        report = json.loads(
            (tmp_path / "chaos_host_report.json").read_text())
        assert report["ok"] and report["seed"] == 0
        stores = next(p for p in report["probes"]
                      if p["probe"] == "stores")
        assert stores["byte_identical"]

    def test_cli_chaos_flat_form_still_works(self):
        proc = run_cli("chaos", "--seeds", "0")
        assert proc.returncode != 0
        assert "--seeds must be >= 1" in proc.stderr


class TestCLIExitCodes:
    def test_degraded_campaign_exits_5(self, tmp_path):
        yaml = self._poison_yaml(tmp_path)
        env_cmd = ["campaign", "run", str(yaml), "--db",
                   str(tmp_path / "runs.db"), "--no-cache", "--jobs", "2",
                   "--resilient"]
        proc = run_cli(*env_cmd, timeout=300)
        assert proc.returncode == 5, proc.stdout + proc.stderr
        assert "DEGRADED" in proc.stdout
        assert "quarantined: chaos_host_poison" in proc.stdout

    def test_worker_failure_exits_4(self, tmp_path):
        # Without --resilient the poison job is never re-run in the
        # coordinator, where its os._exit would end the command with
        # no output: it surfaces as SweepWorkerError -> exit 4.
        from repro.campaign.rundb import RunDB

        yaml = self._poison_yaml(tmp_path)
        proc = run_cli("campaign", "run", str(yaml), "--db",
                       str(tmp_path / "runs.db"), "--no-cache",
                       "--jobs", "2", timeout=300)
        assert proc.returncode == 4, proc.stdout + proc.stderr
        assert "unrecoverable worker failure" in proc.stderr
        assert "chaos_host_poison" in proc.stderr
        # The job that finished is recorded before the error surfaces.
        with RunDB(tmp_path / "runs.db") as db:
            rows = db.runs()
        assert [(r.workload, r.quarantined) for r in rows] == \
            [("atomic_sum_48", False)]

    def test_sweep_timeout_exits_3(self, tmp_path):
        proc = run_cli("chaos", "host", "--seed", "0",
                       "--probes", "stores", "--timeout", "0.001",
                       "--workdir", str(tmp_path), timeout=300)
        assert proc.returncode == 3, proc.stdout + proc.stderr
        assert "sweep timeout" in proc.stderr

    @staticmethod
    def _poison_yaml(tmp_path):
        path = tmp_path / "poison.yaml"
        path.write_text("""\
schema: repro.campaign/v1
campaign: poison_smoke
description: worker-failure exit-code check.
defaults: {preset: tiny, seeds: [1]}
figures:
  - name: smoke
    workloads:
      - {name: atomic_sum_48, factory: atomic_sum, args: [48]}
      - {name: chaos_host_poison, factory: chaos_host_poison, args: [16]}
    archs:
      - {name: baseline, kind: baseline}
""")
        return path

    def test_doctor_non_sqlite_file_exits_1(self, tmp_path):
        path = tmp_path / "chaos.jsonl"  # e.g. an old JSONL journal
        path.write_text('{"schema": "repro.sweep-journal/v2"}\n')
        proc = run_cli("doctor", str(path))
        assert proc.returncode == 1
        assert "UNREADABLE (not a sqlite run database)" in proc.stdout
        # Reported, never opened as a database or rewritten.
        assert path.read_text() == '{"schema": "repro.sweep-journal/v2"}\n'

    def test_doctor_clean_exits_0_corrupt_exits_1(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_jobs(smoke_specs()[:1], jobs=1, cache=True,
                 cache_dir=str(cache_dir))
        proc = run_cli("doctor", str(cache_dir))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all stores clean" in proc.stdout
        victim = next(iter(sorted(cache_dir.rglob("*.json"))))
        victim.write_text("{definitely not json")
        proc = run_cli("doctor", str(cache_dir), "--json", "-")
        assert proc.returncode == 1
        assert "CORRUPTION FOUND" in proc.stdout
