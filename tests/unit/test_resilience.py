"""Unit tests for repro.resilience: integrity, quarantine, doctor, watchdog.

The store-level behaviors these pin down are the acceptance contract of
the resilience layer: checksums detect any content change, quarantine
preserves evidence without ever deleting it, the doctor's repairs are
idempotent, and the watchdog reads process states correctly.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.harness.sweep import run_jobs
from repro.resilience import integrity
from repro.resilience.chaoshost import smoke_specs
from repro.resilience.doctor import diagnose, scan_cache_dir
from repro.resilience.quarantine import (
    ISOLATION_ATTEMPTS,
    PoisonQuarantine,
    ResilienceContext,
)
from repro.resilience.watchdog import proc_state, watchdog_supported


# ----------------------------------------------------------------------
# seal / verify / content_checksum
# ----------------------------------------------------------------------

def test_seal_and_verify_roundtrip():
    doc = {"schema": "x/v1", "result": {"cycles": 7}, "nested": [1, 2]}
    sealed = integrity.seal(doc)
    assert integrity.INTEGRITY_KEY in sealed
    assert integrity.verify(sealed)


def test_verify_rejects_any_content_change():
    sealed = integrity.seal({"a": 1, "b": "two"})
    for mutate in (
        lambda d: d.update(a=2),
        lambda d: d.update(b="tw0"),
        lambda d: d.update(c=None),          # added key
        lambda d: d.pop("b"),                # removed key
        lambda d: d.update({integrity.INTEGRITY_KEY: "0" * 64}),
    ):
        bad = dict(sealed)
        mutate(bad)
        assert not integrity.verify(bad)


def test_verify_rejects_unsealed_doc():
    assert not integrity.verify({"a": 1})


def test_checksum_is_key_order_independent():
    a = integrity.content_checksum({"x": 1, "y": 2})
    b = integrity.content_checksum({"y": 2, "x": 1})
    assert a == b


# ----------------------------------------------------------------------
# atomic writes + the injectable write shim (the ENOSPC seam)
# ----------------------------------------------------------------------

def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "doc.json"
    integrity.atomic_write_text(path, "hello\n")
    assert path.read_text() == "hello\n"
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_write_shim_failure_preserves_old_content(tmp_path):
    path = tmp_path / "doc.json"
    integrity.atomic_write_text(path, "original\n")

    def full_disk(_path, _nbytes):
        raise OSError(errno.ENOSPC, "No space left on device (simulated)")

    with integrity.write_shim(full_disk):
        with pytest.raises(OSError):
            integrity.atomic_write_text(path, "replacement\n")
    # The rename never happened and the temp file was cleaned up.
    assert path.read_text() == "original\n"
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_write_shim_uninstalls_on_exit(tmp_path):
    def boom(_path, _nbytes):
        raise OSError(errno.ENOSPC, "nope")

    with integrity.write_shim(boom):
        pass
    integrity.atomic_write_text(tmp_path / "ok.txt", "fine\n")
    assert (tmp_path / "ok.txt").read_text() == "fine\n"


# ----------------------------------------------------------------------
# quarantine: never delete, rename-based, idempotent names
# ----------------------------------------------------------------------

def test_quarantine_file_preserves_bytes(tmp_path):
    store = tmp_path / "cache"
    store.mkdir()
    victim = store / "entry.json"
    victim.write_text("corrupt garbage")
    qpath = integrity.quarantine_file(victim, store)
    assert not victim.exists()
    assert qpath is not None and qpath.read_text() == "corrupt garbage"
    assert qpath.parent == integrity.quarantine_dir(store)


# ----------------------------------------------------------------------
# PoisonQuarantine / ResilienceContext
# ----------------------------------------------------------------------

def test_quarantine_records_and_lookup(tmp_path):
    q = PoisonQuarantine(tmp_path / "blame.jsonl")
    rec = q.add(spec_hash="ab" * 32, workload="w", index=3,
                kind="worker-death", attempts=ISOLATION_ATTEMPTS,
                traceback="tb")
    assert q.is_poisoned("ab" * 32)
    assert not q.is_poisoned("cd" * 32)
    assert q.get("ab" * 32) is rec
    # Durable mirror: every line sealed, record round-trips.
    lines = (tmp_path / "blame.jsonl").read_text().splitlines()
    docs = [json.loads(line) for line in lines]
    assert all(integrity.verify(d) for d in docs)
    assert docs[1]["spec_hash"] == "ab" * 32
    assert docs[1]["attempts"] == ISOLATION_ATTEMPTS


def test_resilience_context_degraded_flag():
    ctx = ResilienceContext()
    assert not ctx.degraded
    ctx.quarantine.add(spec_hash="x", workload="w", index=0,
                       kind="exception", attempts=2, traceback="")
    assert ctx.degraded


# ----------------------------------------------------------------------
# doctor
# ----------------------------------------------------------------------

def _sealed_cache_entry(path, schema, cycles=5):
    from repro.harness.sweep import CACHE_SCHEMA  # noqa: F401 (import check)
    doc = integrity.seal({"schema": schema, "key": path.stem,
                          "result": {"cycles": cycles}})
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


def test_doctor_cache_scan_classifies_and_repairs(tmp_path):
    from repro.harness.sweep import CACHE_SCHEMA

    root = tmp_path / "cache"
    root.mkdir()
    _sealed_cache_entry(root / "good.json", CACHE_SCHEMA)
    _sealed_cache_entry(root / "stale.json", "repro.sweep-cache/v0")
    (root / "torn.json").write_text('{"schema": "' + CACHE_SCHEMA)
    flipped = root / "flipped.json"
    _sealed_cache_entry(flipped, CACHE_SCHEMA, cycles=6)
    flipped.write_text(flipped.read_text().replace('"cycles": 6',
                                                   '"cycles": 7'))
    report = scan_cache_dir(root)
    assert report["entries"] == 4
    assert report["verified"] == 1
    assert report["stale"] == 1
    assert len(report["quarantined"]) == 2
    # Never deleted: evidence lives in the sibling quarantine dir.
    assert len(list(integrity.quarantine_dir(root).iterdir())) == 2
    # Idempotent: a second scan is clean.
    again = scan_cache_dir(root)
    assert again["quarantined"] == [] and again["verified"] == 1


def _journal_dir(path):
    """A private cache directory, as ``repro chaos --journal`` writes it."""
    run_jobs(smoke_specs(), jobs=1, cache=True, cache_dir=str(path))
    return sorted(path.rglob("*.json"))


def test_doctor_journal_repair_is_idempotent(tmp_path):
    path = tmp_path / "journal"
    entries = _journal_dir(path)
    assert len(entries) == 2
    torn = entries[0].read_bytes()[:-40]
    entries[0].write_bytes(torn)
    report = scan_cache_dir(path)
    assert report["entries"] == 2 and report["verified"] == 1
    [qpath] = report["quarantined"]
    assert not entries[0].exists()
    with open(qpath, "rb") as fh:
        assert fh.read() == torn  # evidence preserved, byte for byte
    again = scan_cache_dir(path)
    assert again["quarantined"] == [] and again["verified"] == 1
    # The repaired directory resumes: the survivor replays, the
    # quarantined job is simulated and sealed again.
    results = run_jobs(smoke_specs(), jobs=1, cache=True,
                       cache_dir=str(path))
    hits = sorted(bool(r.extra.get("cache_hit")) for r in results)
    assert hits == [False, True]
    assert scan_cache_dir(path)["verified"] == 2


def test_doctor_diagnose_missing_target(tmp_path):
    report = diagnose(tmp_path / "nope")
    assert not report["ok"]
    assert report["error"] == "target does not exist"


def test_doctor_diagnose_dir_covers_journals(tmp_path):
    (tmp_path / "sub").mkdir()
    entries = _journal_dir(tmp_path / "chaos-journal")
    report = diagnose(tmp_path)
    [store] = report["stores"]
    assert store["kind"] == "cache"
    assert store["entries"] == store["verified"] == len(entries) == 2
    assert report["ok"]


# ----------------------------------------------------------------------
# watchdog: /proc state sampling
# ----------------------------------------------------------------------

@pytest.mark.skipif(not watchdog_supported(), reason="needs /proc")
def test_proc_state_sees_running_and_stopped():
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(30)"])
    try:
        assert proc_state(child.pid) in ("R", "S", "D")
        os.kill(child.pid, signal.SIGSTOP)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if proc_state(child.pid) in ("T", "t"):
                break
            time.sleep(0.01)
        assert proc_state(child.pid) in ("T", "t")
        os.kill(child.pid, signal.SIGCONT)
    finally:
        child.kill()
        child.wait()


def test_proc_state_unknown_pid_is_none():
    # PIDs are recycled, but 2**22+5 exceeds the default pid_max.
    assert proc_state(2 ** 22 + 5) is None
