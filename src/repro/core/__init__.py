"""Deterministic Atomic Buffering — the paper's primary contribution.

* ``atomic_buffer`` — warp-/scheduler-level atomic buffers with atomic
  fusion and coalescing marks (paper Sections IV-B, IV-E, IV-F).
* ``schedulers`` — GTO baseline plus the four determinism-aware warp
  schedulers SRR, GTRR, GTAR, GWAT (Section IV-C, Fig 7).
* ``flush`` — the GPU-wide deterministic buffer-flush state machine with
  pre-flush messages, offset flushing and the NR/OF/CIF relaxations
  (Sections IV-D, VI-B2, VI-B4).
* ``dab`` — :class:`DABConfig`, the user-facing knob set, including the
  area model (9-byte entries, Section IV-B / VI).
"""

from repro.core.atomic_buffer import AtomicBuffer, BufferEntry, FlushTransaction
from repro.core.dab import DABConfig, BufferLevel
from repro.core.schedulers import (
    SchedRow,
    SchedulerPolicy,
    GTOScheduler,
    SRRScheduler,
    GTRRScheduler,
    GTARScheduler,
    GWATScheduler,
    make_scheduler,
    POLICY_NAMES,
)
from repro.core.flush import FlushController

__all__ = [
    "AtomicBuffer",
    "BufferEntry",
    "FlushTransaction",
    "DABConfig",
    "BufferLevel",
    "SchedRow",
    "SchedulerPolicy",
    "GTOScheduler",
    "SRRScheduler",
    "GTRRScheduler",
    "GTARScheduler",
    "GWATScheduler",
    "make_scheduler",
    "POLICY_NAMES",
    "FlushController",
]
