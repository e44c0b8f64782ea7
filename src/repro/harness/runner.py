"""Run one workload on one architecture variant."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.config import GPUConfig
from repro.core.dab import DABConfig
from repro.faults import FaultPlan
from repro.gpudet.gpudet import GPUDetConfig
from repro.obs import ObsConfig
from repro.sim.gpu import GPU
from repro.sim.nondet import JitterSource
from repro.sim.results import SimResult
from repro.workloads import Workload


@dataclass(frozen=True)
class ArchSpec:
    """One architecture variant to evaluate."""

    kind: str                       # "baseline" | "dab" | "gpudet"
    dab: Optional[DABConfig] = None
    gpudet: Optional[GPUDetConfig] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("baseline", "dab", "gpudet"):
            raise ValueError(f"unknown architecture kind {self.kind!r}")
        if self.kind == "dab" and self.dab is None:
            object.__setattr__(self, "dab", DABConfig.paper_default())
        if self.kind == "gpudet" and self.gpudet is None:
            object.__setattr__(self, "gpudet", GPUDetConfig())
        if not self.label:
            if self.kind == "dab":
                object.__setattr__(self, "label", "DAB-" + self.dab.label)
            else:
                object.__setattr__(self, "label", self.kind)

    @classmethod
    def baseline(cls) -> "ArchSpec":
        return cls("baseline", label="baseline")

    @classmethod
    def make_dab(cls, config: Optional[DABConfig] = None, label: str = "") -> "ArchSpec":
        return cls("dab", dab=config or DABConfig.paper_default(), label=label)

    @classmethod
    def make_gpudet(cls, config: Optional[GPUDetConfig] = None) -> "ArchSpec":
        return cls("gpudet", gpudet=config or GPUDetConfig(), label="GPUDet")


def run_workload(
    factory: Callable[[], Workload],
    arch: ArchSpec,
    gpu_config: Optional[GPUConfig] = None,
    seed: int = 1,
    jitter: bool = True,
    jitter_dram: int = 16,
    jitter_icnt: int = 6,
    max_cycles: Optional[int] = None,
    obs: Optional[ObsConfig] = None,
    faults: Optional[FaultPlan] = None,
    invariants=False,
    record_state: bool = False,
) -> SimResult:
    """Build a fresh workload instance and run it to completion.

    Returns the cumulative :class:`SimResult` with ``label`` set to the
    architecture's label and the workload's output digest recorded in
    ``extra['output_digest']`` (the determinism check).  Pass an
    :class:`~repro.obs.ObsConfig` to collect metrics / a structured
    trace; the hub is attached to the result as ``result.obs``.  Pass a
    :class:`~repro.faults.FaultPlan` to arm deterministic fault
    injection, and ``invariants=True`` (or an
    :class:`~repro.faults.InvariantConfig`) to assert protocol
    invariants at runtime; fault/checker tallies land in
    ``extra['faults_injected']`` / ``extra['invariant_checks']``.
    ``record_state=True`` attaches a
    :class:`~repro.memory.globalmem.CommitRecorder` and serialises the
    reduction-commit stream into ``extra['red_commits']`` and the final
    memory image into ``extra['final_mem']`` (both JSON strings; the
    conformance harness diffs them against the reference oracle — plain
    strings survive sweep-worker pickling and metrics round-trips).
    """
    t0 = time.perf_counter()
    workload = factory()
    if record_state:
        from repro.memory.globalmem import CommitRecorder

        workload.mem.commit_log = CommitRecorder()
    gpu = GPU(
        gpu_config or GPUConfig.small(),
        workload.mem,
        dab=arch.dab if arch.kind == "dab" else None,
        gpudet=arch.gpudet if arch.kind == "gpudet" else None,
        jitter=JitterSource(seed, dram_max=jitter_dram, icnt_max=jitter_icnt)
        if jitter else None,
        obs=obs,
        max_cycles=max_cycles,
        faults=faults,
        invariants=invariants,
    )
    result = workload.drive(gpu)
    # Host wall-clock: telemetry only (metrics v3 `host_profile`), never
    # part of any determinism surface.
    result.wall_s = time.perf_counter() - t0
    result.sim_wall_s = gpu.sim_wall_s
    result.label = arch.label
    result.extra["output_digest"] = workload.output_digest()
    result.extra["workload"] = workload.name
    if gpu.faults is not None:
        result.extra["faults_injected"] = gpu.faults.total_injected
    if gpu.inv is not None:
        result.extra["invariant_checks"] = gpu.inv.checks
    if record_state:
        import base64
        import json

        result.extra["red_commits"] = json.dumps(
            [[op.addr, op.opcode, [float(v) for v in op.operands]]
             for op in workload.mem.commit_log.reductions()],
            separators=(",", ":"),
        )
        mem = workload.mem
        result.extra["final_mem"] = json.dumps(
            {
                name: {
                    "base": mem.base_of(name),
                    "float": mem.is_float_buffer(name),
                    "data": base64.b64encode(
                        mem.buffer(name).tobytes()).decode("ascii"),
                }
                for name in mem.buffer_names()
            },
            separators=(",", ":"), sort_keys=True,
        )
    gpu.release()
    return result
