"""DAB's flush reorder buffer at each memory sub-partition.

During a buffer flush, entries from different SMs arrive over the
interconnect in a non-deterministic order.  The paper's protocol
(Section IV-D, Fig 8) restores determinism per sub-partition:

1. every cluster first sends a *pre-flush message* announcing how many
   entries it will send to this sub-partition;
2. the sub-partition computes the deterministic commit order —
   round-robin across SMs over each SM's announced stream;
3. arriving entries that are next-in-order go straight to the ROP; early
   arrivals wait in the *flush buffer* and are drained whenever the head
   of the order shows up.

This class implements steps 2–3.  The DAB-NR relaxation of the
limitation study bypasses it: its entries go straight to the ROP in
arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.memory.globalmem import AtomicOp


@dataclass
class FlushBufferStats:
    entries_received: int = 0
    entries_buffered: int = 0     # arrived out of order
    max_occupancy: int = 0


class FlushReorderBuffer:
    """Reorders one flush round's entries into round-robin-across-SM order."""

    def __init__(self, inv=None, partition_id: int = -1):
        #: runtime invariant checker (None = checking off); it shadows
        #: the round independently, so buffer and checker must *agree*.
        self.inv = inv
        self.partition_id = partition_id
        self.stats = FlushBufferStats()
        self._expected: Dict[int, int] = {}      # sm_id -> announced count
        self._received: Dict[int, int] = {}      # sm_id -> next seq expected
        self._pending: Dict[Tuple[int, int], AtomicOp] = {}
        self._order: List[Tuple[int, int]] = []  # deterministic commit order
        self._order_pos = 0
        self._open = False

    # ------------------------------------------------------------------
    def begin_round(self, expected_counts: Dict[int, int]) -> None:
        """Start a flush round after all pre-flush messages arrived."""
        if self._open:
            raise RuntimeError("previous flush round still open")
        self._expected = dict(expected_counts)
        self._received = {sm: 0 for sm in expected_counts}
        self._pending.clear()
        self._order_pos = 0
        self._open = True
        # Round-robin across SMs in SM-id order: seq 0 of every SM, then
        # seq 1, ... SMs with fewer entries drop out of later rounds
        # ("SMs with less messages are eventually skipped").
        self._order = []
        if self._expected:
            max_count = max(self._expected.values())
            sms = sorted(self._expected)
            for seq in range(max_count):
                for sm in sms:
                    if seq < self._expected[sm]:
                        self._order.append((sm, seq))
        self._maybe_close()

    @property
    def occupancy(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    def receive(self, sm_id: int, op: AtomicOp) -> List[AtomicOp]:
        """Accept one arriving flush entry; return the entries now ready
        for the ROP, in the deterministic commit order."""
        if self.inv is not None:
            # Raises a structured InvariantViolation (naming cycle, unit
            # and fault) ahead of the bare errors below.
            self.inv.on_flush_arrival(self.partition_id, sm_id)
        if not self._open:
            raise RuntimeError("flush entry received outside a round")
        if sm_id not in self._expected:
            raise ValueError(f"unexpected SM {sm_id} in flush round")
        seq = self._received[sm_id]
        if seq >= self._expected[sm_id]:
            raise ValueError(f"SM {sm_id} sent more entries than announced")
        self._received[sm_id] = seq + 1
        self.stats.entries_received += 1

        self._pending[(sm_id, seq)] = op
        if len(self._pending) > 1:
            self.stats.entries_buffered += 1
        self.stats.max_occupancy = max(self.stats.max_occupancy, len(self._pending))

        ready: List[AtomicOp] = []
        while self._order_pos < len(self._order):
            key = self._order[self._order_pos]
            if key not in self._pending:
                break
            ready.append(self._pending.pop(key))
            if self.inv is not None:
                self.inv.on_flush_release(self.partition_id, key[0], key[1])
            self._order_pos += 1
        self._maybe_close()
        return ready

    def _maybe_close(self) -> None:
        if self._order_pos >= len(self._order) and not self._pending:
            self._open = False

    @property
    def complete(self) -> bool:
        return not self._open
