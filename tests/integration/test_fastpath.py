"""Event-driven issue engine vs per-cycle polling reference.

The fastpath (default) and the polling loop (``REPRO_NO_FASTPATH=1``)
must be observationally indistinguishable: identical memory digests,
cycle counts, metrics (including the Fig 15 stall breakdown and the
trace digest), no matter the architecture, workload, or fault plan.
"""

import os

import pytest

from repro.config import GPUConfig
from repro.core.dab import DABConfig
from repro.faults import FaultConfig, FaultPlan
from repro.gpudet.gpudet import GPUDetConfig
from repro.harness.runner import ArchSpec, run_workload
from repro.obs import ObsConfig
from repro.workloads.bc import build_bc
from repro.workloads.convolution import build_conv
from repro.workloads.microbench import build_atomic_sum, build_histogram


def _run(factory, arch, fastpath, gpu_config=None, **kw):
    """One run under an explicit engine (on ``GPUConfig.small()`` unless
    ``gpu_config`` is given); restores the env afterwards."""
    prev = os.environ.get("REPRO_NO_FASTPATH")
    if fastpath:
        os.environ.pop("REPRO_NO_FASTPATH", None)
    else:
        os.environ["REPRO_NO_FASTPATH"] = "1"
    try:
        return run_workload(factory, arch,
                            gpu_config=gpu_config or GPUConfig.small(),
                            seed=1, **kw)
    finally:
        if prev is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = prev


def _comparable(res):
    md = res.metrics_dict()
    md.pop("host_profile", None)
    return {
        "metrics": md,
        "mem_digest": res.mem_digest,
        "cycles": res.cycles,
        "stalls": res.stalls.as_dict(),
        "output_digest": res.extra["output_digest"],
    }


def _assert_engines_agree(factory, arch, **kw):
    fast = _comparable(_run(factory, arch, fastpath=True, **kw))
    poll = _comparable(_run(factory, arch, fastpath=False, **kw))
    assert fast == poll
    return fast


ARCHES = [
    pytest.param(ArchSpec.baseline(), id="baseline"),
    pytest.param(ArchSpec.make_dab(
        DABConfig(buffer_entries=64, scheduler="gwat", fusion=True,
                  coalescing=True), "dab"), id="dab"),
    pytest.param(ArchSpec.make_gpudet(), id="gpudet"),
]


@pytest.mark.parametrize("arch", ARCHES)
def test_engines_identical_with_observability(arch):
    # Full observability: the comparison covers the trace digest and
    # every registered metric, including gpu.run.epochs.
    out = _assert_engines_agree(
        lambda: build_histogram(4096, bins=32), arch,
        obs=ObsConfig(metrics=True, trace=True),
    )
    assert "trace" in out["metrics"]


@pytest.mark.parametrize("arch", ARCHES)
def test_engines_identical_under_faults(arch):
    plan = FaultPlan(11, FaultConfig(
        dram_burst_prob=0.2, dram_burst_len=6, dram_burst_extra=40,
        icnt_spike_prob=0.1, icnt_spike_max=20, reorder_prob=0.05,
        reorder_max_delay=12, stall_windows=2, stall_len=200,
    ))
    _assert_engines_agree(
        lambda: build_atomic_sum(2048), arch,
        faults=plan, invariants=True,
    )


def test_engines_identical_on_graph_workload():
    # Barriers + data-dependent control flow: exercises the barrier
    # release paths and their calendar touches.
    _assert_engines_agree(
        lambda: build_bc(graph="1k", scale=32),
        ArchSpec.make_dab(DABConfig(buffer_entries=64, scheduler="gwat",
                                    fusion=True, coalescing=True), "dab"),
        obs=ObsConfig(metrics=True, trace=True),
    )


def test_stall_windows_book_identically():
    # A small buffer forces buffer_full and flush stall windows on top
    # of the mem windows.  Each bucket the polling loop fills
    # cycle-by-cycle must come out identical from the bulk accounting.
    arch = ArchSpec.make_dab(DABConfig(buffer_entries=32, scheduler="gwat"),
                             "dab-tiny")
    out = _assert_engines_agree(lambda: build_bc(graph="1k", scale=32), arch)
    stalls = out["stalls"]
    assert stalls["mem"] > 0
    assert stalls["buffer_full"] > 0
    assert stalls["flush"] > 0
    assert stalls["issued"] > 0


def test_barrier_windows_book_identically():
    # Convolution hits whole-scheduler barrier waits on the baseline;
    # the fastpath books those windows with the "barrier" reason.
    out = _assert_engines_agree(lambda: build_conv("cnv2_1"),
                                ArchSpec.baseline())
    assert out["stalls"]["barrier"] > 0
    assert out["stalls"]["mem"] > 0


def test_gpudet_quantum_stalls_identical():
    out = _assert_engines_agree(
        lambda: build_atomic_sum(2048),
        ArchSpec.make_gpudet(GPUDetConfig(quantum_instrs=20)),
    )
    assert out["stalls"]["mem"] > 0


def test_gpudet_idle_sms_identical_at_titan_v():
    # At TITAN V scale most GPUDet quanta leave 79 of the 80 SMs without
    # a live warp; the quantum boundaries skip those SMs.  BC launches
    # five kernels, so CTA turnover and kernel starts are covered too.
    out = _assert_engines_agree(
        lambda: build_bc(graph="1k", scale=32), ArchSpec.make_gpudet(),
        gpu_config=GPUConfig.titan_v(),
        obs=ObsConfig(metrics=True, trace=True),
    )
    modes = out["metrics"]["gpudet_mode_cycles"]
    assert modes["commit"] > 0
    assert modes["serial"] > 0
    assert "trace" in out["metrics"]


def test_epochs_gauge_matches_across_engines():
    # Both engines count one epoch per issue-phase execution; the gauge
    # is part of the metrics comparison above, but pin it explicitly.
    fast = _run(lambda: build_histogram(2048, bins=16), ArchSpec.baseline(),
                fastpath=True, obs=ObsConfig(metrics=True))
    poll = _run(lambda: build_histogram(2048, bins=16), ArchSpec.baseline(),
                fastpath=False, obs=ObsConfig(metrics=True))
    key = "gpu.run.epochs"
    f = fast.metrics_dict()["metrics"][key]
    p = poll.metrics_dict()["metrics"][key]
    assert f == p
    assert f["value"] > 0
