"""Host-fault resilience: self-verifying stores, quarantine, watchdog.

The harness that serves campaigns must treat host faults as routine
input: disks flip bits and fill up, workers die or hang, one bad job
can be deterministically poisonous.  This package is the shared
machinery that turns those faults from undefined behavior into
detected, classified, and recoverable events:

* :mod:`repro.resilience.integrity` — sha256 content checksums on
  every durable artifact, atomic writes, the injectable write shim
  (ENOSPC seam), and quarantine-never-delete plumbing.
* :mod:`repro.resilience.quarantine` — poison-job classification:
  structured blame records and the :class:`ResilienceContext` handle
  that arms failure classification in the sweep engine.
* :mod:`repro.resilience.watchdog` — the heartbeat watchdog that
  detects SIGSTOP'd/hung workers and replaces them before the per-job
  timeout burns the budget.
* :mod:`repro.resilience.doctor` — `repro doctor`: scan/repair every
  artifact store and emit a machine-readable integrity report.
* :mod:`repro.resilience.chaoshost` — `repro chaos host`: the seeded
  host-fault harness that proves all of the above under fire.
"""

from repro.resilience.doctor import DOCTOR_SCHEMA, diagnose
from repro.resilience.integrity import (
    INTEGRITY_KEY,
    atomic_write_text,
    content_checksum,
    install_write_shim,
    quarantine_dir,
    seal,
    verify,
    write_shim,
)
from repro.resilience.quarantine import (
    ISOLATION_ATTEMPTS,
    PoisonQuarantine,
    PoisonRecord,
    ResilienceContext,
    ResilienceStats,
)
from repro.resilience.watchdog import HeartbeatWatchdog, watchdog_supported

__all__ = [
    "DOCTOR_SCHEMA",
    "INTEGRITY_KEY",
    "ISOLATION_ATTEMPTS",
    "HeartbeatWatchdog",
    "PoisonQuarantine",
    "PoisonRecord",
    "ResilienceContext",
    "ResilienceStats",
    "atomic_write_text",
    "content_checksum",
    "diagnose",
    "install_write_shim",
    "quarantine_dir",
    "seal",
    "verify",
    "watchdog_supported",
    "write_shim",
]
