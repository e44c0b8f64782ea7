"""End-to-end chaos robustness: the `repro chaos` campaign, corruption
detection through the full simulator stack, kill-and-resume from a
private cache directory (real SIGKILL, byte-identical resumed table),
and failing-job attribution on sweep errors."""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.config import GPUConfig
from repro.faults import FaultConfig, FaultPlan, InvariantViolation
from repro.harness.runner import ArchSpec, run_workload
from repro.harness.sweep import (
    JobSpec,
    SweepTimeoutError,
    WorkloadRef,
    register_workload,
    run_jobs,
)
from repro.workloads.microbench import build_atomic_sum, build_order_sensitive

TINY = GPUConfig.tiny()
_PARENT = os.getpid()
_REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _chaos_sleep_factory(n=16):
    if os.getpid() != _PARENT:
        time.sleep(60)
    return build_atomic_sum(n)


register_workload("_chaos_sleep", _chaos_sleep_factory)


class TestChaosCampaign:
    def test_cli_campaign_passes(self, capsys):
        from repro.cli import main

        rc = main(["chaos", "--seeds", "3"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "bitwise identical" in out
        assert "diverged as expected" in out
        assert "drop" in out and "dup" in out
        assert "PASSED" in out

    def test_corruption_probe_detected_through_stack(self):
        # Not via the CLI: assert on the structured violation payload.
        with pytest.raises(InvariantViolation) as ei:
            run_workload(lambda: build_order_sensitive(256),
                         ArchSpec.make_dab(), gpu_config=TINY,
                         faults=FaultPlan(7, FaultConfig(drop_prob=0.15)),
                         invariants=True)
        v = ei.value
        assert v.invariant == "flush_counts"
        assert v.unit.startswith("partition.")
        assert v.fault is not None and "drop" in v.fault

    def test_violation_survives_worker_boundary(self):
        # Same probe, but through a jobs=2 process pool: the
        # InvariantViolation is pickled back from the worker, and the
        # structured fields — not a flattened message or an opaque
        # unpickling TypeError — must reach the caller.
        specs = [
            JobSpec(WorkloadRef("order_sensitive", kwargs={"n": 256}),
                    ArchSpec.make_dab(), gpu=TINY,
                    faults=FaultConfig(drop_prob=0.15), fault_seed=7,
                    invariants=True),
            JobSpec(WorkloadRef("atomic_sum", kwargs={"n": 64}),
                    ArchSpec.make_dab(), gpu=TINY),
        ]
        with pytest.raises(InvariantViolation) as ei:
            run_jobs(specs, jobs=2, cache=False)
        v = ei.value
        assert v.invariant == "flush_counts"
        assert v.unit.startswith("partition.")
        assert v.fault is not None and "drop" in v.fault

    def test_timing_chaos_preserves_dab_output(self):
        plain = run_workload(lambda: build_order_sensitive(128),
                             ArchSpec.make_dab(), gpu_config=TINY)
        chaotic = run_workload(lambda: build_order_sensitive(128),
                               ArchSpec.make_dab(), gpu_config=TINY,
                               faults=FaultPlan.sample(17), invariants=True)
        assert chaotic.extra["output_digest"] == plain.extra["output_digest"]
        assert chaotic.extra["faults_injected"] > 0
        assert chaotic.extra["invariant_checks"] > 0
        # ...but faults are not free: timing is allowed to move.
        assert chaotic.cycles >= plain.cycles


_CAMPAIGN = """\
import sys
from repro.config import GPUConfig
from repro.harness.runner import ArchSpec
from repro.harness.sweep import JobSpec, WorkloadRef, run_jobs

specs = [
    JobSpec(WorkloadRef("atomic_sum", (n,)), arch, gpu=GPUConfig.tiny())
    for n in range(16, 112, 8)
    for arch in (ArchSpec.baseline(), ArchSpec.make_dab())
]
results = run_jobs(specs, jobs=1, cache=True, cache_dir=sys.argv[1])
for r in results:
    print(r.label, r.cycles, r.extra["output_digest"])
hits = sum(bool(r.extra.get("cache_hit")) for r in results)
print("cache hits:", hits, file=sys.stderr)
"""


class TestJournalKillAndResume:
    """The campaign's journal is a private cache directory: each
    finished job is one fsynced entry, and a rerun replays them."""

    def _run(self, script, journal, **kw):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(_REPO, "src")
        return subprocess.run([sys.executable, str(script), str(journal)],
                              capture_output=True, text=True, env=env,
                              timeout=300, **kw)

    def test_sigkilled_campaign_resumes_byte_identical(self, tmp_path):
        script = tmp_path / "campaign.py"
        script.write_text(_CAMPAIGN)
        journal = tmp_path / "resume"

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(_REPO, "src")
        proc = subprocess.Popen(
            [sys.executable, str(script), str(journal)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
        # Wait for >=2 durably stored jobs, then kill -9 mid-campaign.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if len(list(journal.rglob("*.json"))) >= 2:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        killed_running = proc.poll() is None
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
        stored_before = len(list(journal.rglob("*.json")))
        assert stored_before >= 2

        resumed = self._run(script, journal)
        assert resumed.returncode == 0, resumed.stderr
        pristine = self._run(script, tmp_path / "fresh")
        assert pristine.returncode == 0, pristine.stderr

        # The resumed table is byte-identical to the uninterrupted one.
        assert resumed.stdout == pristine.stdout
        if killed_running:
            # The resume actually replayed the stored work.
            hits = int(resumed.stderr.strip().rsplit(" ", 1)[-1])
            assert hits >= 2

    def test_rerun_after_completion_is_all_hits(self, tmp_path):
        script = tmp_path / "campaign.py"
        script.write_text(_CAMPAIGN)
        journal = tmp_path / "full"
        first = self._run(script, journal)
        assert first.returncode == 0, first.stderr
        second = self._run(script, journal)
        assert second.returncode == 0, second.stderr
        assert second.stdout == first.stdout
        n_jobs = len(first.stdout.splitlines())
        assert second.stderr.strip().endswith(f"cache hits: {n_jobs}")


class TestErrorAttribution:
    def test_timeout_error_names_jobs(self):
        specs = [
            JobSpec(WorkloadRef("_chaos_sleep", (n,)), ArchSpec.baseline(),
                    gpu=TINY)
            for n in (16, 24)
        ]
        with pytest.raises(SweepTimeoutError) as ei:
            run_jobs(specs, jobs=2, cache=False, timeout=1.0)
        err = ei.value
        assert err.jobs, "timeout error must carry failing-job refs"
        for ref in err.jobs:
            assert ref["workload"] == "_chaos_sleep"
            assert ref["spec_hash"] == specs[ref["index"]].spec_hash()
        # The message itself is actionable: names workload + hash prefix.
        assert "_chaos_sleep" in str(err)
        assert err.jobs[0]["spec_hash"][:16] in str(err)
