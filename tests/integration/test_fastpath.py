"""The event-driven run engine, pinned by golden timing cells.

Each test replays one cell of the golden timing matrix
(:mod:`tests.integration.timing_matrix`) with every invariant armed,
the ``wake`` check of the engine's incremental state included, and
compares it with the cell's entry: cycles, stall breakdown, epochs,
GPUDet mode cycles and the memory, output, trace, commit and metrics
digests.  Each test then checks the stall buckets or GPUDet modes its
cell exists to exercise, so a golden re-pin cannot quietly drop them.
"""

import pytest

from tests.integration.timing_matrix import check_cell

ARCHES = [
    pytest.param("baseline", id="baseline"),
    pytest.param("dab-gwat", id="dab"),
    pytest.param("gpudet", id="gpudet"),
]


@pytest.mark.parametrize("arch", ARCHES)
def test_engines_identical_with_observability(arch, request):
    # Full observability: the cell pins the trace digest and every
    # registered metric, including gpu.run.epochs.
    out = check_cell(f"small/histogram/{arch}", request)
    assert out["trace_digest"]


@pytest.mark.parametrize("arch", ARCHES)
def test_engines_identical_under_faults(arch, request):
    # DRAM bursts, interconnect spikes, delivery reorders and partition
    # stalls all reschedule warp wake-ups.
    check_cell(f"small+hand/atomic_sum/{arch}", request)


def test_engines_identical_on_graph_workload(request):
    # Barriers + data-dependent control flow: exercises the barrier
    # release paths and the wake-ups they record.
    check_cell("small/bc_1k/dab-gwat", request)


def test_stall_windows_book_identically(request):
    # A small buffer forces buffer_full and flush stall windows on top
    # of the mem windows; each is booked in bulk when it closes.
    stalls = check_cell("small/bc_1k/dab-gwat32", request)["stalls"]
    assert stalls["mem"] > 0
    assert stalls["buffer_full"] > 0
    assert stalls["flush"] > 0
    assert stalls["issued"] > 0


def test_barrier_windows_book_identically(request):
    # Convolution hits whole-scheduler barrier waits on the baseline,
    # booked with the "barrier" reason.
    stalls = check_cell("small/cnv2_1/baseline", request)["stalls"]
    assert stalls["barrier"] > 0
    assert stalls["mem"] > 0


def test_gpudet_quantum_stalls_identical(request):
    stalls = check_cell("small/atomic_sum/gpudet-q20", request)["stalls"]
    assert stalls["mem"] > 0


def test_gpudet_idle_sms_identical_at_titan_v(request):
    # At TITAN V scale most GPUDet quanta leave 79 of the 80 SMs without
    # a live warp; the quantum boundaries skip those SMs.  BC launches
    # five kernels, so CTA turnover and kernel starts are covered too.
    out = check_cell("titan_v/bc_1k/gpudet", request)
    modes = out["gpudet_mode_cycles"]
    assert modes["commit"] > 0
    assert modes["serial"] > 0
    assert out["trace_digest"]


def test_epochs_gauge_matches_across_engines(request):
    # One epoch per issue-phase execution; the gauge is pinned with the
    # metrics digest above, but pin it explicitly.
    out = check_cell("small/histogram/baseline", request)
    assert out["epochs"] > 0
