"""Simulation results and statistics containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

#: Version tag for the ``metrics_dict`` document layout.  Bump only on
#: breaking key changes; downstream tooling (CI smoke checks, bench
#: trackers) pins on it.
#:
#: v2: ``from_metrics_dict`` round-trips the sweep provenance flags
#: (``extra['cache_hit']`` / ``extra['journal_hit']``).
#:
#: v3: ``host_profile`` gains a stable shape — ``{"wall_s": seconds,
#: "phases": {phase: {"seconds", "calls"}}}`` — and round-trips through
#: ``from_metrics_dict`` (as plain data on ``wall_s`` /
#: ``host_phases``; no Observability hub is reconstructed).  Host time
#: remains confined to ``host_profile``: strip that one section before
#: any determinism diff, exactly as before.
METRICS_SCHEMA = "repro.metrics/v3"


@dataclass
class StallBreakdown:
    """Per-scheduler-cycle stall accounting (Fig 15 buckets).

    :meth:`record` and :meth:`record_bulk` are the only booking path:
    each tests the reason against the bucket set once and adds to the
    field in the instance dict, with no per-bucket scan or reflection.
    A stall reason without a bucket raises and names the buckets, so a
    new stall source cannot land in Fig 15 data unnoticed.  No
    scheduler reports ``other``: it stays in :meth:`as_dict`, always
    0, so that the metrics document keeps its layout.
    """

    issued: int = 0
    empty: int = 0
    mem: int = 0
    barrier: int = 0
    inorder: int = 0
    token: int = 0
    round: int = 0
    buffer_full: int = 0
    flush: int = 0
    batch: int = 0
    other: int = 0

    _FIELDS = (
        "issued", "empty", "mem", "barrier", "inorder",
        "token", "round", "buffer_full", "flush", "batch", "other",
    )

    def record(self, reason: Optional[str]) -> None:
        if reason is None:
            self.issued += 1
        elif reason in _BUCKETS:
            self.__dict__[reason] += 1
        else:
            self._unknown(reason)

    def record_bulk(self, reason: str, count: int) -> None:
        """Book ``count`` stalled scheduler-cycles of one reason at once.

        The run loop skips a scheduler while none of its warps can
        issue; when the stall window closes, the whole window is
        accounted here in one call.  Equivalent by definition to
        ``count`` individual :meth:`record` calls (one per epoch), which
        the unit tests pin down.
        """
        if count <= 0:
            return
        if reason in _BUCKETS:
            self.__dict__[reason] += count
        else:
            self._unknown(reason)

    def _unknown(self, reason: str) -> None:
        raise ValueError(
            f"unknown stall reason {reason!r}; add a StallBreakdown "
            f"bucket for it (known: {', '.join(self._FIELDS)})"
        )

    def merge(self, other: "StallBreakdown") -> None:
        mine, theirs = self.__dict__, other.__dict__
        for f in self._FIELDS:
            mine[f] += theirs[f]

    def as_dict(self) -> Dict[str, int]:
        counts = self.__dict__
        return {f: counts[f] for f in self._FIELDS}

    @property
    def total(self) -> int:
        return sum(self.as_dict().values())

    def determinism_overhead_fraction(self) -> float:
        """Fraction of scheduler slots lost to determinism machinery."""
        det = self.inorder + self.token + self.round + self.buffer_full + self.flush + self.batch
        return det / self.total if self.total else 0.0


#: the stall buckets (``issued`` included), for one membership test.
_BUCKETS = frozenset(StallBreakdown._FIELDS)


@dataclass
class SimResult:
    """Everything one simulation run reports."""

    label: str
    cycles: int
    instructions: int
    atomics: int
    kernels: int
    mem_digest: str
    stalls: StallBreakdown = field(default_factory=StallBreakdown)
    l1_miss_rate: float = 0.0
    l2_miss_rate: float = 0.0
    flush_count: int = 0
    flush_cycles: int = 0
    flush_entries: int = 0
    fused_atomics: int = 0
    icnt_packets: int = 0
    icnt_queue_delay: int = 0
    gpudet_mode_cycles: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    #: per-buffer telemetry rows: one dict per (sm, buffer) pair.
    buffer_stats: List[Dict[str, int]] = field(default_factory=list)
    #: per-memory-partition telemetry rows (reorder depth, traffic).
    partition_stats: List[Dict[str, int]] = field(default_factory=list)
    #: host wall-clock seconds for the run (throughput telemetry only —
    #: excluded from equality so determinism comparisons stay exact).
    wall_s: float = field(default=0.0, compare=False)
    #: wall-clock seconds inside GPU.run() only (engine cost, excluding
    #: workload build / digesting); same telemetry-only rules as wall_s.
    sim_wall_s: float = field(default=0.0, compare=False)
    #: host phase totals ({phase: {"seconds", "calls"}}) carried by
    #: reconstructed results; live runs report the profiler's instead.
    host_phases: Dict[str, Dict[str, float]] = field(
        default_factory=dict, compare=False
    )
    #: the run's observability hub (registry/tracer/profiler), if any.
    obs: Optional["Observability"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def atomics_per_kilo_instr(self) -> float:
        """Atomics PKI, the Table II / Table III workload metric."""
        return 1000.0 * self.atomics / self.instructions if self.instructions else 0.0

    def normalized_to(self, baseline: "SimResult") -> float:
        """Execution-time slowdown vs a baseline run (paper's main metric)."""
        if baseline.cycles == 0:
            raise ValueError("baseline has zero cycles")
        return self.cycles / baseline.cycles

    def summary(self) -> str:
        return (
            f"{self.label}: {self.cycles} cycles, {self.instructions} instrs, "
            f"IPC={self.ipc:.2f}, atomics PKI={self.atomics_per_kilo_instr:.2f}, "
            f"flushes={self.flush_count}"
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_metrics_dict(cls, doc: Dict[str, object]) -> "SimResult":
        """Reconstruct a result from a :meth:`metrics_dict` document.

        Inverse of :meth:`metrics_dict` for everything the experiments
        and tables consume; observability payloads (``metrics`` /
        ``trace`` / ``host_profile``) are run-local and are *not*
        restored — a reconstructed result has ``obs=None``.  Used by the
        sweep engine's disk cache (``repro.harness.sweep``).

        Only :data:`METRICS_SCHEMA` documents are read: the sweep cache,
        the one production source, keys each entry by the cache version
        and the code fingerprint, so no older document reaches this
        reader.  Any other schema raises rather than misreading a layout.
        """
        schema = doc.get("schema")
        if schema != METRICS_SCHEMA:
            raise ValueError(
                f"unsupported metrics schema {schema!r} "
                f"(expected {METRICS_SCHEMA!r})"
            )
        stalls = StallBreakdown()
        for k, v in dict(doc.get("stalls", {})).items():
            if k in StallBreakdown._FIELDS:
                setattr(stalls, k, int(v))
        caches = dict(doc.get("caches", {}))
        flush = dict(doc.get("flush", {}))
        icnt = dict(doc.get("icnt", {}))
        host = dict(doc.get("host_profile", {}))
        return cls(
            label=str(doc.get("label", "")),
            cycles=int(doc["cycles"]),
            instructions=int(doc["instructions"]),
            atomics=int(doc["atomics"]),
            kernels=int(doc["kernels"]),
            mem_digest=str(doc.get("mem_digest", "")),
            stalls=stalls,
            l1_miss_rate=float(caches.get("l1_miss_rate", 0.0)),
            l2_miss_rate=float(caches.get("l2_miss_rate", 0.0)),
            flush_count=int(flush.get("count", 0)),
            flush_cycles=int(flush.get("cycles", 0)),
            flush_entries=int(flush.get("entries", 0)),
            fused_atomics=int(flush.get("fused_atomics", 0)),
            icnt_packets=int(icnt.get("packets", 0)),
            icnt_queue_delay=int(icnt.get("queue_delay", 0)),
            gpudet_mode_cycles={str(k): int(v) for k, v in
                                dict(doc.get("gpudet_mode_cycles", {})).items()},
            extra=dict(doc.get("extra", {})),
            buffer_stats=list(doc.get("buffers", [])),
            partition_stats=list(doc.get("partitions", [])),
            wall_s=float(host.get("wall_s", 0.0)),
            sim_wall_s=float(host.get("sim_wall_s", 0.0)),
            host_phases={str(k): dict(v) for k, v in
                         dict(host.get("phases", {})).items()},
        )

    def metrics_dict(self) -> Dict[str, object]:
        """The machine-readable run report (``--metrics-json``).

        Schema-stable: every top-level key is always present (empty
        when the producing subsystem was disabled), so downstream
        tooling can diff two reports without key churn.  Host wall-clock
        data lives only under ``host_profile`` — strip that section (and
        ``trace.digest`` if tracing was off) before determinism diffs.
        """
        extra = {k: self.extra[k] for k in sorted(self.extra)}
        doc: Dict[str, object] = {
            "schema": METRICS_SCHEMA,
            "label": self.label,
            "workload": self.extra.get("workload", ""),
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "atomics": self.atomics,
            "atomics_pki": self.atomics_per_kilo_instr,
            "kernels": self.kernels,
            "mem_digest": self.mem_digest,
            "stalls": self.stalls.as_dict(),
            "stall_determinism_overhead": self.stalls.determinism_overhead_fraction(),
            "caches": {
                "l1_miss_rate": self.l1_miss_rate,
                "l2_miss_rate": self.l2_miss_rate,
            },
            "flush": {
                "count": self.flush_count,
                "cycles": self.flush_cycles,
                "entries": self.flush_entries,
                "fused_atomics": self.fused_atomics,
            },
            "icnt": {
                "packets": self.icnt_packets,
                "queue_delay": self.icnt_queue_delay,
            },
            "gpudet_mode_cycles": dict(self.gpudet_mode_cycles),
            "buffers": list(self.buffer_stats),
            "partitions": list(self.partition_stats),
            "extra": extra,
            "metrics": {},
            "trace": {},
            "host_profile": {
                "wall_s": self.wall_s,
                "sim_wall_s": self.sim_wall_s,
                "phases": {k: dict(self.host_phases[k])
                           for k in sorted(self.host_phases)},
            },
        }
        if self.obs is not None:
            if self.obs.metrics is not None:
                doc["metrics"] = self.obs.metrics.as_dict()
            if self.obs.tracer is not None:
                doc["trace"] = {
                    "events_retained": len(self.obs.tracer),
                    "events_emitted": self.obs.tracer.emitted,
                    "events_dropped": self.obs.tracer.dropped,
                    "digest": self.obs.tracer.digest(),
                }
            if self.obs.profiler is not None:
                doc["host_profile"]["phases"] = self.obs.profiler.as_dict()
        return doc
