"""Unit tests for workload builders (structure only, no simulation)."""

import numpy as np
import pytest

from repro.workloads import Workload
from repro.workloads.bc import build_bc
from repro.workloads.convolution import (
    GATING_LAYERS,
    RESNET_LAYERS,
    build_conv,
    conv_reference,
)
from repro.workloads.graphs import generate
from repro.workloads.locks import build_lock_sum
from repro.workloads.microbench import (
    build_atomic_sum,
    build_histogram,
    build_multi_target,
    build_order_sensitive,
)
from repro.workloads.pagerank import build_pagerank
from repro.workloads.sssp import INF, build_sssp, sssp_reference


class TestBuilders:
    def test_atomic_sum_structure(self):
        wl = build_atomic_sum(n=100, cta_dim=32)
        assert wl.kernels[0].grid_dim == 4  # ceil(100/32)
        assert wl.outputs == ["out"]
        assert len(wl.mem.buffer("in")) == 100

    def test_order_sensitive_values_span_binades(self):
        wl = build_order_sensitive(n=256)
        mags = np.abs(wl.mem.buffer("in"))
        assert mags.max() / mags.min() > 100

    def test_multi_target_reference_shape(self):
        wl = build_multi_target(n=128, targets=8)
        assert len(wl.info["reference_f64"]) == 8

    def test_histogram_reference_counts(self):
        wl = build_histogram(n=500, bins=10)
        assert wl.info["reference"].sum() == 500

    def test_lock_reference_is_f32_chain(self):
        wl = build_lock_sum("tts", n=10, seed=1)
        data = wl.mem.buffer("in")
        acc = np.float32(0.0)
        for v in data:
            acc = np.float32(acc + v)
        assert wl.info["reference_f32"] == float(acc)

    def test_bc_initial_state(self):
        g = generate("FA", 64)
        wl = build_bc(g, source=3)
        d = wl.mem.buffer("d")
        assert d[3] == 0 and (d != -1).sum() == 1
        sigma = wl.mem.buffer("sigma")
        assert sigma[3] == 1.0 and sigma.sum() == 1.0

    def test_pagerank_initial_rank_uniform(self):
        g = generate("coA", 4096)
        wl = build_pagerank(g, iterations=2)
        rank = wl.mem.buffer("rank")
        assert np.allclose(rank, 1.0 / g.num_nodes, rtol=1e-5)

    def test_pagerank_final_buffer_depends_on_parity(self):
        g = generate("coA", 4096)
        assert build_pagerank(g, iterations=1).info["final_buffer"] == "next_rank"
        assert build_pagerank(g, iterations=2).info["final_buffer"] == "rank"

    def test_sssp_initial_distances(self):
        g = generate("FA", 64)
        wl = build_sssp(g, source=2)
        dist = wl.mem.buffer("dist")
        assert dist[2] == 0 and (dist == INF).sum() == g.num_nodes - 1

    def test_sssp_reference_sane(self):
        g = generate("1k", 64)
        w = np.ones(g.num_edges, dtype=np.int64)
        dist = sssp_reference(g, w)
        assert dist[0] == 0
        reached = dist[dist < INF]
        assert (reached >= 0).all()

    def test_conv_grid_structure(self):
        for name, cfg in RESNET_LAYERS.items():
            wl = build_conv(name)
            k = wl.kernels[0]
            assert k.grid_dim == cfg.regions * cfg.slices
            assert len(wl.mem.buffer("dw")) == cfg.filter_elems

    @pytest.mark.parametrize("name", [*RESNET_LAYERS, *GATING_LAYERS])
    def test_conv_reference_equals_the_loop(self, name):
        """The contraction matches the per-element, per-slice loop it
        replaced (kept here) to 1e-12 relative: only the summation
        order differs."""
        layer = {**RESNET_LAYERS, **GATING_LAYERS}[name]
        wl = build_conv(name)
        x, dy = wl.mem.buffer("x"), wl.mem.buffer("dy")
        want = _loop_conv_reference(layer, x, dy)
        got = conv_reference(layer, x, dy)
        assert got.dtype == np.float64 and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(wl.info["reference_f64"], got)

    def test_workload_default_drive_launches_kernels(self):
        wl = build_atomic_sum(n=64)
        assert isinstance(wl, Workload)
        assert wl.driver is None and len(wl.kernels) == 1

    def test_fresh_builders_are_independent(self):
        a = build_atomic_sum(n=64, seed=1)
        b = build_atomic_sum(n=64, seed=1)
        assert a.mem is not b.mem
        assert (a.mem.buffer("in") == b.mem.buffer("in")).all()


def _loop_conv_reference(layer, x, dy):
    """dW filter element by filter element, slice by slice."""
    msl = layer.slices * layer.slice_len
    dw = np.zeros(layer.filter_elems, dtype=np.float64)
    crs = layer.c * layer.r * layer.s
    rs = layer.r * layer.s
    for fg in range(layer.filter_elems):
        k = fg // crs
        c = (fg % crs) // rs
        for sl in range(layer.slices):
            xi = c * msl + sl * layer.slice_len
            yi = k * msl + sl * layer.slice_len
            seg = (x[xi:xi + layer.slice_len].astype(np.float64)
                   * dy[yi:yi + layer.slice_len].astype(np.float64))
            dw[fg] += seg.sum()
    return dw
