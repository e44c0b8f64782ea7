"""Z-buffer commit timing model for GPUDet's commit mode.

GPUDet accelerates store-buffer commit with the GPU's Z-buffer
(depth-test) hardware: buffered stores stream to the memory partitions,
where same-address conflicts are resolved by a depth test on the warp
id, all at rasterization rates.  We model the cost as a fixed pipeline
startup plus one cycle per store entry at the busiest partition
(partitions drain in parallel) plus an interconnect streaming term.
"""

from __future__ import annotations

from typing import Dict, Sequence


def zbuffer_commit_cycles(
    entries_per_partition: Sequence[int],
    startup: int = 64,
    per_entry: int = 1,
    icnt_bandwidth: int = 4,
) -> int:
    """Cycles for one commit phase.

    ``entries_per_partition[p]`` is the number of buffered store entries
    destined to partition ``p`` this quantum (already conflict-merged).
    """
    if entries_per_partition and min(entries_per_partition) < 0:
        raise ValueError("entry counts must be non-negative")
    total = sum(entries_per_partition)
    if total == 0:
        return 0
    busiest = max(entries_per_partition)
    streaming = -(-total // max(1, icnt_bandwidth))
    return startup + per_entry * busiest + streaming
