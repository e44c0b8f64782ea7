"""DAB configuration: buffering level, capacity, scheduler and options.

One :class:`DABConfig` value describes a full DAB variant, e.g. the
paper's headline configuration "GWAT-64-AF-Coalescing" (Fig 10) is::

    DABConfig(buffer_level=BufferLevel.SCHEDULER, buffer_entries=64,
              scheduler="gwat", fusion=True, coalescing=True)

The limitation-study relaxations of Fig 18 (which are *not*
deterministic) are expressed with ``relax_*`` flags:

* ``relax_no_reorder`` (DAB-NR)    — memory partitions apply flush
  entries in arrival order instead of reordering them;
* ``relax_overlap_flush`` (DAB-NR-OF) — a new flush may start before the
  previous one fully drains (implies NR);
* ``relax_cluster_flush`` (DAB-NR-CIF) — each cluster flushes its own
  buffers independently when they fill (implies NR and OF).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.config import GPUConfig
from repro.core.atomic_buffer import ENTRY_BYTES, buffer_area_bytes


class BufferLevel(Enum):
    WARP = "warp"            # one buffer per warp slot (Section IV-B)
    SCHEDULER = "scheduler"  # one buffer per warp scheduler (Section IV-C)


@dataclass(frozen=True)
class DABConfig:
    """Knobs of the DAB architecture extension."""

    buffer_level: BufferLevel = BufferLevel.SCHEDULER
    buffer_entries: int = 64
    scheduler: str = "gwat"
    fusion: bool = False
    coalescing: bool = False
    offset_flush: bool = False
    #: Entries by which even-SM flush streams are rotated (paper VI-B2
    #: uses 32: "Every SM with an even SM id starts flushing at the 32nd
    #: index").
    offset_entries: int = 32
    # Limitation-study relaxations (Fig 18) — break determinism.
    relax_no_reorder: bool = False
    relax_overlap_flush: bool = False
    relax_cluster_flush: bool = False

    def __post_init__(self) -> None:
        if self.buffer_entries < 1:
            raise ValueError("buffer_entries must be >= 1")
        if self.relax_overlap_flush and not self.relax_no_reorder:
            raise ValueError("overlapping flushes require no-reorder (DAB-NR-OF)")
        if self.relax_cluster_flush and not (
            self.relax_no_reorder and self.relax_overlap_flush
        ):
            raise ValueError(
                "cluster-independent flushing implies NR and OF (DAB-NR-CIF)"
            )

    @property
    def deterministic(self) -> bool:
        """True when this variant actually guarantees determinism."""
        if self.relax_no_reorder or self.relax_overlap_flush or self.relax_cluster_flush:
            return False
        if self.buffer_level is BufferLevel.SCHEDULER and self.scheduler == "gto":
            return False  # shared buffer without determinism-aware scheduling
        return True

    @property
    def label(self) -> str:
        parts = []
        if self.buffer_level is BufferLevel.WARP:
            parts.append("Warp" + self.scheduler.upper())
        else:
            parts.append(self.scheduler.upper())
        parts.append(str(self.buffer_entries))
        if self.fusion:
            parts.append("AF")
        if self.coalescing:
            parts.append("Coal")
        if self.offset_flush:
            parts.append("Off")
        if self.relax_cluster_flush:
            parts.append("NR-CIF")
        elif self.relax_overlap_flush:
            parts.append("NR-OF")
        elif self.relax_no_reorder:
            parts.append("NR")
        return "-".join(parts)

    # -- paper's named configurations ------------------------------------
    @classmethod
    def paper_default(cls) -> "DABConfig":
        """GWAT-64-AF-Coalescing, the Fig 10 headline configuration."""
        return cls(fusion=True, coalescing=True)

    @classmethod
    def warp_level(cls, entries: int = 32) -> "DABConfig":
        """Per-warp buffers with baseline GTO ("WarpGTO", Fig 11).

        Warp-level buffers need no determinism-aware scheduling: their
        contents are per-warp program order (paper IV-B), so the paper's
        "WarpGTO" runs plain GTO.
        """
        return cls(buffer_level=BufferLevel.WARP, buffer_entries=entries,
                   scheduler="gto")

    # -- area model (Sections IV-B, VI) -----------------------------------
    def area_bytes_per_sm(self, gpu: GPUConfig) -> int:
        if self.buffer_level is BufferLevel.WARP:
            buffers = gpu.max_warps_per_sm
        else:
            buffers = gpu.num_schedulers_per_sm
        return buffer_area_bytes(buffers, self.buffer_entries)
