"""Poison-job quarantine: classify failures, blame them, move on.

A *transient* worker death (OOM pressure, a fork storm, an operator's
stray ``kill``) is survivable: retry the job in a fresh pool and it
completes.  A *poison* job crashes its worker deterministically — left
to the retry loop it would burn every attempt and then take the whole
sweep down with it.  The sweep engine distinguishes the two by
isolation: a job whose shared pool died is re-run in its own fresh
single-worker pool; a job that kills :data:`ISOLATION_ATTEMPTS`
dedicated pools in a row is deterministically poisonous and is
**quarantined** — recorded with structured blame
``{spec_hash, workload, traceback}`` — while the campaign continues in
explicitly-recorded degraded mode.

:class:`ResilienceContext` is the handle a caller passes to
:func:`repro.harness.sweep.run_jobs` to opt in: it collects the
quarantine records, watchdog statistics, and store-write failures of
one sweep, and can durably append blame records to a JSONL file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.resilience.integrity import atomic_write_text, seal

#: Fresh-pool attempts a suspect job gets before being declared poison.
#: The acceptance contract: a deterministic crasher is quarantined after
#: exactly this many isolated attempts, never retried forever.
ISOLATION_ATTEMPTS = 2

#: Schema tag of durable quarantine files.
QUARANTINE_SCHEMA = "repro.quarantine/v1"


@dataclass(frozen=True)
class PoisonRecord:
    """Structured blame for one quarantined job."""

    spec_hash: str
    workload: str
    index: int
    kind: str              # "worker-death" | "exception"
    attempts: int          # fresh-pool attempts before quarantine
    traceback: str

    def to_doc(self) -> Dict[str, object]:
        return {
            "spec_hash": self.spec_hash,
            "workload": self.workload,
            "index": self.index,
            "kind": self.kind,
            "attempts": self.attempts,
            "traceback": self.traceback,
        }


@dataclass
class ResilienceStats:
    """What the resilience machinery did during one sweep."""

    #: SIGSTOP'd/hung workers the watchdog killed so the pool replaced them.
    workers_replaced: int = 0
    #: fresh single-worker pools spun up for suspect jobs.
    isolated_attempts: int = 0
    #: suspect jobs that completed once isolated (transient failures).
    isolated_recoveries: int = 0
    #: cache writes that failed and were tolerated loudly.
    store_write_errors: int = 0
    #: corrupt cache entries quarantined on read this sweep.
    cache_quarantined: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class PoisonQuarantine:
    """Collected blame records for one campaign's poison jobs.

    Pass ``path`` to durably mirror every record into a JSONL file
    (sealed with content checksums, written atomically) so quarantine
    survives the coordinating process.
    """

    def __init__(self, path=None) -> None:
        self.path = Path(path) if path is not None else None
        self.records: List[PoisonRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def is_poisoned(self, spec_hash: str) -> bool:
        return any(r.spec_hash == spec_hash for r in self.records)

    def get(self, spec_hash: str) -> Optional[PoisonRecord]:
        for r in self.records:
            if r.spec_hash == spec_hash:
                return r
        return None

    def add(self, *, spec_hash: str, workload: str, index: int, kind: str,
            attempts: int, traceback: str) -> PoisonRecord:
        record = PoisonRecord(spec_hash=spec_hash, workload=workload,
                              index=index, kind=kind, attempts=attempts,
                              traceback=traceback)
        self.records.append(record)
        if self.path is not None:
            self._flush()
        return record

    def _flush(self) -> None:
        lines = [json.dumps(seal({"schema": QUARANTINE_SCHEMA}),
                            sort_keys=True, separators=(",", ":"))]
        lines += [json.dumps(seal(r.to_doc()), sort_keys=True,
                             separators=(",", ":"))
                  for r in self.records]
        try:
            atomic_write_text(self.path, "\n".join(lines) + "\n")
        except OSError:
            pass  # blame durability is best-effort; records stay in memory


class ResilienceContext:
    """One sweep's opt-in handle: quarantine + stats in a single object.

    Passing a context to ``run_jobs`` changes the failure contract:
    a job the engine classifies as poison (it killed every pool it ran
    in, or raised in each of its isolation pools) no longer raises
    ``SweepWorkerError`` or its own exception — its result slot is
    ``None`` and a :class:`PoisonRecord` explains why.  Armed or not,
    no job is re-run in the coordinator after a pool died.
    """

    def __init__(self, quarantine: Optional[PoisonQuarantine] = None,
                 quarantine_path=None) -> None:
        if quarantine is None:
            quarantine = PoisonQuarantine(quarantine_path)
        self.quarantine = quarantine
        self.stats = ResilienceStats()

    @property
    def degraded(self) -> bool:
        """True when at least one job was quarantined."""
        return len(self.quarantine) > 0
