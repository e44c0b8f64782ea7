"""DAB atomic buffers (paper Sections IV-B, IV-E, IV-F).

An atomic buffer holds ``red`` reduction operations in insertion order
instead of sending them to memory.  Each entry is the tuple the paper
describes — *(memory address, argument, opcode, valid)*, 9 bytes of
storage (5 B address, 4 B argument, 1 B opcode+valid).  Buffers support:

* **associative search by address** — used by *atomic fusion*
  (Section IV-E): a new reduction to an address already present with the
  same opcode is folded into the existing entry (an exact local f32
  reduction in insertion order, so still deterministic);
* **full / non-empty bits** — the full bit is *sticky*: once an insert
  does not fit, the buffer rejects all further inserts (even fusable
  ones) until flushed.  This is required for determinism: otherwise the
  set of operations captured by a flush would depend on how long the
  GPU-wide flush trigger takes to fire, which is timing-dependent;
* **coalescing marks** (Section IV-F) — at flush time, runs of entries
  that target the same cache sector can be grouped into one interconnect
  transaction, lowering memory traffic.  Entries stay separate inside
  the buffer and are still applied individually at the ROP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fp.float32 import f32_add
from repro.memory.globalmem import AtomicOp

ENTRY_BYTES = 9  # 5B address + 4B argument + 1B opcode/valid (paper IV-B)
SECTOR_BYTES = 32


@dataclass
class BufferEntry:
    """One (address, argument, opcode) buffer slot."""

    addr: int
    opcode: str
    value: float
    fused_count: int = 1

    @property
    def sector(self) -> int:
        return self.addr // SECTOR_BYTES * SECTOR_BYTES

    def to_atomic_op(self) -> AtomicOp:
        return AtomicOp(self.addr, self.opcode, (self.value,))


@dataclass
class FlushTransaction:
    """One interconnect transaction produced by draining a buffer.

    Without coalescing each transaction carries a single entry; with
    coalescing a transaction carries every entry of one sector run.
    """

    ops: Tuple[AtomicOp, ...]
    sector: int

    @property
    def payload_bytes(self) -> int:
        return ENTRY_BYTES * len(self.ops)


@dataclass
class AtomicBufferStats:
    inserts: int = 0
    fused: int = 0
    reject_full: int = 0
    flushes: int = 0
    flushed_entries: int = 0
    max_occupancy: int = 0


class AtomicBuffer:
    """A warp-level or scheduler-level DAB atomic buffer.

    ``obs``/``name``/``sm_id`` are optional observability wiring: when
    an :class:`repro.obs.Observability` hub is attached, inserts, fusion
    hits, sticky-full trips and drains are emitted as cycle-stamped
    ``buffer`` events under the hierarchical ``name``
    (e.g. ``sm.3.sched.0``).  With ``obs=None`` (the default) every
    emission site is a single attribute test.
    """

    def __init__(self, capacity: int, fusion: bool = False,
                 obs=None, name: str = "", sm_id: int = -1, inv=None):
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.capacity = capacity
        self.fusion = fusion
        self.obs = obs
        #: runtime invariant checker; None = checking off (zero cost).
        self.inv = inv
        self.name = name
        self.sm_id = sm_id
        self._m_flush_occ = None
        if obs is not None and getattr(obs, "metrics", None) is not None:
            from repro.obs import OCCUPANCY_EDGES

            self._m_flush_occ = obs.histogram(
                f"{name}.flushed_occupancy", OCCUPANCY_EDGES
            )
        self.stats = AtomicBufferStats()
        self._entries: List[BufferEntry] = []
        self._index: Dict[Tuple[int, str], int] = {}  # (addr, opcode) -> entry idx
        self._full = False
        # Optional GPU-wide summaries (repro.sim.soa): the plain-int
        # nonempty/full counters the flush trigger queries read.
        # None for standalone buffers (unit tests).
        self._counters = None

    def bind_counters(self, soa) -> None:
        """Count this buffer in ``soa``'s nonempty/full summaries."""
        self._counters = soa
        if self._entries:
            soa.buf_nonempty_count += 1
        if self._full:
            soa.buf_full_count += 1

    # -- state bits ------------------------------------------------------
    @property
    def full(self) -> bool:
        """The sticky full bit (paper Fig 6: set when an issue is blocked)."""
        return self._full

    @property
    def non_empty(self) -> bool:
        return bool(self._entries)

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    # -- insertion ---------------------------------------------------------
    def slots_needed(self, ops: Sequence[AtomicOp]) -> int:
        """Slots a warp's red operation would consume (accounting fusion).

        Lanes hitting an existing entry (or an earlier lane of the same
        request) fuse and need no slot.
        """
        if not self.fusion:
            return len(ops)
        needed = 0
        seen: set = set()
        for op in ops:
            key = (op.addr, op.opcode)
            if key in self._index or key in seen:
                continue
            seen.add(key)
            needed += 1
        return needed

    def can_accept(self, ops: Sequence[AtomicOp]) -> bool:
        """True if the warp's whole red request fits right now.

        A buffer whose full bit is set accepts nothing until flushed
        (determinism — see module docstring).
        """
        if self._full:
            return False
        return len(self._entries) + self.slots_needed(ops) <= self.capacity

    def mark_full(self) -> None:
        """Record a blocked issue: sets the sticky full bit."""
        if self._counters is not None and not self._full:
            self._counters.buf_full_count += 1
        self._full = True
        self.stats.reject_full += 1
        if self.obs is not None:
            self.obs.emit("buffer", "full", buf=self.name, sm=self.sm_id,
                          occ=len(self._entries))

    def insert(self, ops: Sequence[AtomicOp]) -> None:
        """Insert one warp's red operations in increasing-lane order.

        Caller must have checked :meth:`can_accept`; the per-lane order
        is the deterministic intra-warp order of paper Section IV-B.
        """
        if not self.can_accept(ops):
            raise RuntimeError("insert() without space; call can_accept first")
        was_empty = not self._entries
        fused_before = self.stats.fused
        for op in ops:
            key = (op.addr, op.opcode)
            if self.fusion and key in self._index:
                entry = self._entries[self._index[key]]
                entry.value = _fuse(entry.opcode, entry.value, op.operands[0])
                entry.fused_count += 1
                self.stats.fused += 1
            else:
                self._index[key] = len(self._entries)
                self._entries.append(
                    BufferEntry(op.addr, op.opcode, op.operands[0])
                )
            self.stats.inserts += 1
        occ = len(self._entries)
        if self._counters is not None and was_empty and occ:
            self._counters.buf_nonempty_count += 1
        if self.inv is not None:
            self.inv.check_buffer_occupancy(self.name, occ, self.capacity)
        if occ > self.stats.max_occupancy:
            self.stats.max_occupancy = occ
        if self.obs is not None:
            fused = self.stats.fused - fused_before
            self.obs.emit("buffer", "insert", buf=self.name, sm=self.sm_id,
                          ops=len(ops), occ=occ)
            if fused:
                self.obs.emit("buffer", "fuse", buf=self.name, sm=self.sm_id,
                              fused=fused, occ=occ)

    # -- draining -------------------------------------------------------------
    def drain(self, coalesce: bool) -> List[FlushTransaction]:
        """Empty the buffer into flush transactions in entry order.

        With ``coalesce`` (Section IV-F), maximal runs of consecutive
        entries that share a sector become one transaction.  Offset
        flushing (Section VI-B2) rotates the SM's *concatenated* stream
        and is applied by the SM, not per buffer.
        """
        entries = self._entries
        n = len(entries)
        txns: List[FlushTransaction] = []
        i = 0
        while i < n:
            j = i + 1
            if coalesce:
                while j < n and entries[j].sector == entries[i].sector:
                    j += 1
            txns.append(
                FlushTransaction(
                    ops=tuple(e.to_atomic_op() for e in entries[i:j]),
                    sector=entries[i].sector,
                )
            )
            i = j
        self.stats.flushes += 1
        self.stats.flushed_entries += n
        self._entries = []
        self._index.clear()
        if self._counters is not None:
            if n:
                self._counters.buf_nonempty_count -= 1
            if self._full:
                self._counters.buf_full_count -= 1
        self._full = False
        if n and self._m_flush_occ is not None:
            self._m_flush_occ.observe(n)
        if self.obs is not None and n:
            self.obs.emit("buffer", "drain", buf=self.name, sm=self.sm_id,
                          entries=n, txns=len(txns), occ=0)
        return txns

    def peek_entries(self) -> Tuple[BufferEntry, ...]:
        return tuple(self._entries)


def _fuse(opcode: str, acc, value):
    """Locally reduce two arguments (exact f32 for float adds)."""
    root, dtype = opcode.split(".")
    if root == "add":
        if dtype == "f32":
            return float(f32_add(acc, value))
        return int(acc) + int(value)
    if root == "min":
        return min(acc, value)
    if root == "max":
        return max(acc, value)
    raise ValueError(f"cannot fuse opcode {opcode!r}")


def buffer_area_bytes(num_buffers_per_sm: int, entries_per_buffer: int) -> int:
    """Area model of paper Sections IV-B / VI: 9-byte entries."""
    return num_buffers_per_sm * entries_per_buffer * ENTRY_BYTES
