"""CLI error paths: exit codes AND stderr text, end to end.

Each case runs ``python -m repro`` in a subprocess — the same surface a
shell script or CI job sees — and asserts both the exit status and the
diagnostic, so a refactor can't silently turn a crisp usage error into
a traceback (or into a silent success).
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).parents[2]


def run_cli(*argv, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
        cwd=str(REPO),
    )


class TestUsageErrors:
    def test_unknown_workload_ref(self):
        proc = run_cli("run", "--workload", "no_such_thing")
        assert proc.returncode != 0
        assert "unknown workload 'no_such_thing'" in proc.stderr
        assert "repro list" in proc.stderr

    def test_audit_unknown_workload_ref(self):
        proc = run_cli("audit", "--workload", "bogus:42")
        assert proc.returncode != 0
        assert "unknown workload 'bogus:42'" in proc.stderr

    def test_audit_trace_digest_rejects_parallel_jobs(self):
        proc = run_cli("audit", "--workload", "microbench:64",
                       "--trace-digest", "--jobs", "2")
        assert proc.returncode != 0
        assert "--trace-digest requires --jobs 1" in proc.stderr

    def test_chaos_zero_seeds(self):
        proc = run_cli("chaos", "--seeds", "0")
        assert proc.returncode != 0
        assert "--seeds must be >= 1" in proc.stderr

    def test_chaos_journal_must_be_a_directory(self, tmp_path):
        old = tmp_path / "chaos.jsonl"  # a journal file of older releases
        old.write_text("{}\n")
        proc = run_cli("chaos", "--seeds", "1", "--journal", str(old))
        assert proc.returncode != 0
        assert proc.stderr.strip() == (
            f"chaos: --journal {old} exists and is not a directory")
        assert old.read_text() == "{}\n"

    def test_check_diff_unknown_workload(self):
        proc = run_cli("check", "diff", "--workloads", "atomic_sum,nope")
        assert proc.returncode != 0
        assert "check diff:" in proc.stderr
        assert "'nope'" in proc.stderr
        # The diagnostic must teach the valid vocabulary.
        assert "atomic_sum" in proc.stderr and "pagerank" in proc.stderr

    def test_check_drf_unknown_workload(self):
        proc = run_cli("check", "drf", "--workload", "never_heard_of_it")
        assert proc.returncode != 0
        assert "check drf: unknown workload(s)" in proc.stderr
        assert "lock_sum_racy" in proc.stderr

    def test_check_requires_subcommand(self):
        proc = run_cli("check")
        assert proc.returncode == 2
        assert "check" in proc.stderr

    def test_unknown_experiment(self):
        proc = run_cli("experiment", "fig99")
        assert proc.returncode != 0
        assert "unknown experiment 'fig99'" in proc.stderr

    def test_bad_trace_category(self):
        proc = run_cli("run", "--workload", "microbench:64",
                       "--preset", "tiny", "--trace", "/dev/null",
                       "--trace-categories", "nonsense")
        assert proc.returncode != 0
        assert "unknown trace categories" in proc.stderr

    def test_lock_workload_under_default_dab_arch(self):
        # The lock kernels use returning atom.* atomics, which DAB
        # rejects when the kernel starts; the default --arch is dab.
        proc = run_cli("run", "--workload", "lock:tts", "--preset", "tiny")
        assert proc.returncode == 1
        assert proc.stderr.startswith("repro: ")
        assert "returning atomics" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestConformanceExitCodes:
    """Pass/fail semantics of the conformance commands themselves."""

    def test_check_drf_racy_control_exits_nonzero(self):
        proc = run_cli("check", "drf", "--workload", "lock_sum_racy",
                       timeout=300)
        assert proc.returncode == 1
        assert "RACY" in proc.stdout
        assert "race certification FAILED" in proc.stdout

    def test_check_drf_clean_workload_exits_zero(self):
        proc = run_cli("check", "drf", "--workload", "atomic_sum",
                       timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "DRF" in proc.stdout
