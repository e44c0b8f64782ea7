"""Set-associative sectored cache with LRU replacement.

Models the tag arrays of the paper's L1 (128 KB, 128 B lines, sectored)
and L2 (per-partition slice).  Only hit/miss behaviour and statistics
are modelled — data always lives in :class:`~repro.memory.globalmem.
GlobalMemory`; the cache decides *latency*, not values (see DESIGN.md).
Sectors within a line fill independently, as in GPGPU-Sim's sector
caches (the paper's updated GPUDet needed sector-cache support too).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.config import CacheConfig


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    sector_misses_on_present_line: int = 0
    evictions: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.accesses += other.accesses
        self.hits += other.hits
        self.misses += other.misses
        self.sector_misses_on_present_line += other.sector_misses_on_present_line
        self.evictions += other.evictions


class SectorCache:
    """Tag-only sectored cache.

    ``access(addr)`` probes one *sector*; returns True on hit.  On a miss
    the sector is filled immediately (latency is charged by the caller —
    a fill-on-miss blocking model, adequate for relative timing).
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        # sets: list of OrderedDict[line_tag -> sector_valid_bitmask]
        self._sets = [OrderedDict() for _ in range(config.num_sets)]
        # Geometry fixed at construction, read per probe without the
        # config's properties.
        self._line_bytes = config.line_bytes
        self._sector_bytes = config.sector_bytes
        self._num_sets = config.num_sets
        self._assoc = config.assoc

    def _locate(self, addr: int) -> Tuple[OrderedDict, int, int]:
        """The set, line address and sector bit of ``addr``."""
        lb = self._line_bytes
        idx = addr // lb
        return (self._sets[idx % self._num_sets], idx * lb,
                1 << (addr % lb // self._sector_bytes))

    def access(self, addr: int, write: bool = False) -> bool:
        """Probe the sector containing ``addr``; fill on miss. True = hit."""
        # _locate, inlined: this runs once per sector of every load.
        lb = self._line_bytes
        idx = addr // lb
        line = idx * lb
        sector_bit = 1 << (addr % lb // self._sector_bytes)
        s = self._sets[idx % self._num_sets]
        stats = self.stats
        stats.accesses += 1
        if line in s:
            valid = s[line]
            s.move_to_end(line)  # LRU touch
            if valid & sector_bit:
                stats.hits += 1
                return True
            s[line] = valid | sector_bit
            stats.misses += 1
            stats.sector_misses_on_present_line += 1
            return False
        # Line miss: allocate, possibly evicting LRU.
        if len(s) >= self._assoc:
            s.popitem(last=False)
            stats.evictions += 1
        s[line] = sector_bit
        stats.misses += 1
        return False

    def probe(self, addr: int) -> bool:
        """Check residency without touching LRU or stats."""
        s, line, sector_bit = self._locate(addr)
        return line in s and bool(s[line] & sector_bit)

    def invalidate(self, addr: int) -> None:
        s, line, _bit = self._locate(addr)
        s.pop(line, None)

    def evict_one(self) -> None:
        """Evict an arbitrary LRU line (used to model virtual-write-queue
        pressure, paper Section V)."""
        for s in self._sets:
            if s:
                s.popitem(last=False)
                self.stats.evictions += 1
                return

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)
