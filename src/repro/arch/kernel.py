"""Kernel, launch-grid and CTA descriptors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.arch.isa import Program

if TYPE_CHECKING:  # pragma: no cover
    from repro.arch.warp import Warp


@dataclass
class Kernel:
    """A mini-PTX program plus its launch configuration and parameters.

    ``params`` play the role of CUDA kernel arguments / ``.param`` space:
    each entry becomes a read-only broadcast register of the same name in
    every warp (integers are 64-bit, floats are binary32).
    """

    name: str
    program: Program
    grid_dim: int
    cta_dim: int
    params: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.grid_dim <= 0 or self.cta_dim <= 0:
            raise ValueError("grid and CTA dimensions must be positive")
        if self.cta_dim > 1024:
            raise ValueError("CTA dimension exceeds 1024 threads")

    @property
    def total_threads(self) -> int:
        return self.grid_dim * self.cta_dim

    def warps_per_cta(self, warp_size: int) -> int:
        return math.ceil(self.cta_dim / warp_size)


@dataclass
class CTA:
    """One cooperative thread array instance of a kernel."""

    kernel: Kernel
    cta_id: int
    sm_id: int = -1
    batch: int = 0
    warps_total: int = 0
    warps_exited: int = 0
    #: live warps in placement order: set when the CTA is placed; an
    #: exiting warp leaves.
    warps: List["Warp"] = field(default_factory=list)
    #: cycle every live warp had arrived at the current ``bar.sync``;
    #: None until then, and cleared again when the barrier releases.
    barrier_complete_at: Optional[int] = None

    @property
    def done(self) -> bool:
        return self.warps_total > 0 and self.warps_exited >= self.warps_total


@dataclass
class KernelLaunch:
    """A queued kernel launch (the simulator runs launches in order)."""

    kernel: Kernel
    next_cta: int = 0

    @property
    def all_ctas_dispatched(self) -> bool:
        return self.next_cta >= self.kernel.grid_dim
