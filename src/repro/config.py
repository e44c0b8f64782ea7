"""GPU hardware configuration (paper Table I) and scaled presets.

The paper evaluates DAB on a GPGPU-Sim model of an NVIDIA TITAN V
(Table I: 40 compute clusters x 2 SMs, 64 warps/SM, 4 warp schedulers/SM,
4.5 MB L2, ...).  A pure-Python cycle-level simulator cannot run an 80-SM
machine over multi-million-instruction workloads in reasonable time, so
the same configuration object also provides *scaled* presets that keep the
structural ratios (SMs per cluster, schedulers per SM, warps per
scheduler, partitions vs. clusters) while shrinking absolute counts.
Every benchmark records which preset it used.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


@dataclass
class CacheConfig:
    """Geometry of one set-associative sectored cache."""

    size_bytes: int
    line_bytes: int = 128
    assoc: int = 8
    sector_bytes: int = 32
    hit_latency: int = 30

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise ValueError(
                "cache size %d not divisible by line*assoc %d"
                % (self.size_bytes, self.line_bytes * self.assoc)
            )
        if self.line_bytes % self.sector_bytes:
            raise ValueError("line size must be a multiple of sector size")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)

    @property
    def sectors_per_line(self) -> int:
        return self.line_bytes // self.sector_bytes


@dataclass
class GPUConfig:
    """Full machine configuration.

    Field names follow paper Table I where applicable.  ``titan_v()``
    reproduces Table I verbatim; ``small()`` / ``tiny()`` are the scaled
    presets used by tests and benchmarks.
    """

    num_clusters: int = 40
    sms_per_cluster: int = 2
    max_warps_per_sm: int = 64
    warp_size: int = 32
    num_schedulers_per_sm: int = 4
    num_registers_per_sm: int = 65536
    max_ctas_per_sm: int = 32

    # Memory system.
    num_mem_partitions: int = 24
    l1_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=128 * 1024, assoc=64)
    )
    l2_cache_per_partition: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=192 * 1024, assoc=24, hit_latency=120
        )
    )
    dram_latency: int = 300
    dram_queue_capacity: int = 32
    dram_bandwidth_per_cycle: int = 1  # serviced requests per cycle per partition

    # Interconnect.
    icnt_flit_bytes: int = 40
    icnt_latency: int = 20
    icnt_input_buffer_size: int = 256
    cluster_ejection_buffer_size: int = 32
    icnt_bandwidth_per_cycle: int = 2  # packets accepted per port per cycle

    # Execution timing.
    alu_latency: int = 4
    sfu_latency: int = 20
    rop_latency: int = 2  # cycles per atomic op at the ROP unit
    issue_width_per_scheduler: int = 1

    # Scheduling.
    baseline_scheduler: str = "gto"

    def __post_init__(self) -> None:
        if self.max_warps_per_sm % self.num_schedulers_per_sm:
            raise ValueError("warps/SM must divide evenly among schedulers")
        if self.warp_size <= 0 or self.warp_size & (self.warp_size - 1):
            raise ValueError("warp size must be a power of two")

    # ------------------------------------------------------------------
    @property
    def num_sms(self) -> int:
        return self.num_clusters * self.sms_per_cluster

    @property
    def warps_per_scheduler(self) -> int:
        return self.max_warps_per_sm // self.num_schedulers_per_sm

    @property
    def threads_per_sm(self) -> int:
        return self.max_warps_per_sm * self.warp_size

    def replace(self, **kwargs) -> "GPUConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Presets.
    # ------------------------------------------------------------------
    @classmethod
    def titan_v(cls) -> "GPUConfig":
        """Paper Table I configuration (TITAN V-like)."""
        return cls()

    @classmethod
    def small(cls) -> "GPUConfig":
        """Scaled preset for benchmarks: 4 clusters x 2 SMs, 4 partitions.

        Keeps 4 schedulers/SM and the scheduler:warp ratio so every
        scheduling/buffering effect in the paper is exercised.
        """
        return cls(
            num_clusters=4,
            sms_per_cluster=2,
            max_warps_per_sm=16,
            num_mem_partitions=4,
            icnt_input_buffer_size=64,
            l1_cache=CacheConfig(size_bytes=32 * 1024, assoc=8),
            l2_cache_per_partition=CacheConfig(
                size_bytes=64 * 1024, assoc=8, hit_latency=120
            ),
        )

    @classmethod
    def narrow(cls) -> "GPUConfig":
        """Scheduler-pressure preset: few SMs, many warp slots each.

        Used by the Fig 11 scheduling-policy study: with only two SMs
        and 8 slots per scheduler, the scaled workloads put several
        warps on every scheduler, which is where SRR/GTRR/GTAR/GWAT
        actually differ (the paper's saturated-SM regime).
        """
        return cls(
            num_clusters=2,
            sms_per_cluster=1,
            max_warps_per_sm=32,
            num_mem_partitions=2,
            l1_cache=CacheConfig(size_bytes=32 * 1024, assoc=8),
            l2_cache_per_partition=CacheConfig(
                size_bytes=64 * 1024, assoc=8, hit_latency=120
            ),
        )

    @classmethod
    def tiny(cls) -> "GPUConfig":
        """Minimal preset for unit tests: 1 cluster x 2 SMs, 2 partitions."""
        return cls(
            num_clusters=1,
            sms_per_cluster=2,
            max_warps_per_sm=8,
            num_mem_partitions=2,
            l1_cache=CacheConfig(size_bytes=8 * 1024, assoc=4),
            l2_cache_per_partition=CacheConfig(
                size_bytes=16 * 1024, assoc=4, hit_latency=120
            ),
        )

    def table1_rows(self) -> list:
        """Rows for regenerating paper Table I."""
        return [
            ("# Compute Clusters", self.num_clusters),
            ("# SM / Compute Cluster", self.sms_per_cluster),
            ("# Streaming Multiprocessors (SM)", self.num_sms),
            ("Max Warps / SM", self.max_warps_per_sm),
            ("Warp Size", self.warp_size),
            ("Number of Threads / SM", self.threads_per_sm),
            ("Baseline Scheduler", self.baseline_scheduler.upper()),
            ("Number of Warp Schedulers / SM", self.num_schedulers_per_sm),
            ("Number of Registers / SM", self.num_registers_per_sm),
            ("L1 Data Cache (bytes)", self.l1_cache.size_bytes),
            (
                "L2 Unified Cache (bytes)",
                self.l2_cache_per_partition.size_bytes * self.num_mem_partitions,
            ),
            ("DRAM request queue capacity", self.dram_queue_capacity),
            ("Interconnect Flit Size", self.icnt_flit_bytes),
            ("Interconnect Input Buffer Size", self.icnt_input_buffer_size),
            ("Cluster Ejection Buffer Size", self.cluster_ejection_buffer_size),
        ]


#: Machine presets by name (the CLI's ``--preset``, a campaign's ``preset``).
GPU_PRESETS = {
    "titan_v": GPUConfig.titan_v,
    "small": GPUConfig.small,
    "narrow": GPUConfig.narrow,
    "tiny": GPUConfig.tiny,
}
