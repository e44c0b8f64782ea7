"""Unit tests for GPUConfig, DABConfig, zbuffer, report, hwmodel, graphs."""

import math

import numpy as np
import pytest

from repro.config import CacheConfig, GPUConfig
from repro.core.dab import BufferLevel, DABConfig
from repro.gpudet.gpudet import GPUDetConfig
from repro.gpudet.zbuffer import zbuffer_commit_cycles
from repro.harness.hwmodel import analytic_hw_ipc, correlation_and_error
from repro.harness.report import Table, geomean, pearson
from repro.sim.results import SimResult, StallBreakdown
from repro.workloads.graphs import (
    TABLE2_GRAPHS,
    connected_bfs_depth,
    generate,
)


class TestGPUConfig:
    def test_titan_v_matches_table1(self):
        cfg = GPUConfig.titan_v()
        assert cfg.num_clusters == 40
        assert cfg.sms_per_cluster == 2
        assert cfg.num_sms == 80
        assert cfg.max_warps_per_sm == 64
        assert cfg.warp_size == 32
        assert cfg.threads_per_sm == 2048
        assert cfg.num_schedulers_per_sm == 4
        assert cfg.num_registers_per_sm == 65536
        assert cfg.baseline_scheduler == "gto"
        rows = dict(cfg.table1_rows())
        assert rows["# Streaming Multiprocessors (SM)"] == 80
        # 4.5 MB L2 (24 partitions x 192 KB)
        assert rows["L2 Unified Cache (bytes)"] == 4.5 * 1024 * 1024

    def test_presets_keep_scheduler_count(self):
        for preset in (GPUConfig.small(), GPUConfig.tiny(), GPUConfig.narrow()):
            assert preset.num_schedulers_per_sm == 4
            assert preset.warp_size == 32

    def test_replace(self):
        cfg = GPUConfig.small().replace(num_clusters=2)
        assert cfg.num_clusters == 2

    def test_warps_must_divide_schedulers(self):
        with pytest.raises(ValueError):
            GPUConfig(max_warps_per_sm=63)

    def test_warp_size_power_of_two(self):
        with pytest.raises(ValueError):
            GPUConfig(warp_size=24)


class TestDABConfig:
    def test_paper_default_label(self):
        assert DABConfig.paper_default().label == "GWAT-64-AF-Coal"

    def test_warp_level_label(self):
        assert DABConfig.warp_level().label.startswith("WarpGTO")

    def test_relaxation_labels(self):
        cfg = DABConfig(relax_no_reorder=True)
        assert cfg.label.endswith("NR")
        cfg = DABConfig(relax_no_reorder=True, relax_overlap_flush=True)
        assert cfg.label.endswith("NR-OF")

    def test_relaxation_ordering_enforced(self):
        with pytest.raises(ValueError):
            DABConfig(relax_overlap_flush=True)
        with pytest.raises(ValueError):
            DABConfig(relax_cluster_flush=True, relax_no_reorder=True)

    def test_determinism_property(self):
        assert DABConfig.paper_default().deterministic
        assert not DABConfig(relax_no_reorder=True).deterministic
        assert not DABConfig(scheduler="gto").deterministic
        assert DABConfig.warp_level().deterministic

    def test_area_model(self):
        gpu = GPUConfig.titan_v()
        warp = DABConfig.warp_level(32)
        sched = DABConfig(buffer_entries=32)
        # paper: "about 20 KB per SM" for warp level, 16x reduction
        assert warp.area_bytes_per_sm(gpu) == 64 * 32 * 9
        assert warp.area_bytes_per_sm(gpu) // sched.area_bytes_per_sm(gpu) == 16

    def test_paper_headline_area(self):
        # "With 4 schedulers per SM, 64 entries per buffer and 9B per
        # entry, total area overhead of DAB ... is 2.3 KB per SM"
        gpu = GPUConfig.titan_v()
        cfg = DABConfig.paper_default()
        assert cfg.area_bytes_per_sm(gpu) == 4 * 64 * 9 == 2304

    def test_buffer_entries_validated(self):
        with pytest.raises(ValueError):
            DABConfig(buffer_entries=0)


class TestZBuffer:
    def test_empty_commit_is_free(self):
        assert zbuffer_commit_cycles([0, 0]) == 0

    def test_busiest_partition_dominates(self):
        fast = zbuffer_commit_cycles([10, 10], startup=0, icnt_bandwidth=1000)
        slow = zbuffer_commit_cycles([20, 0], startup=0, icnt_bandwidth=1000)
        assert slow > fast

    def test_startup_added(self):
        assert zbuffer_commit_cycles([1], startup=64) >= 64

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            zbuffer_commit_cycles([-1])

    def test_quantum_validation(self):
        with pytest.raises(ValueError):
            GPUDetConfig(quantum_instrs=0)


class TestReport:
    def test_geomean(self):
        assert math.isclose(geomean([1.0, 4.0]), 2.0)

    def test_geomean_empty(self):
        assert geomean([]) == 0.0

    def test_pearson_perfect(self):
        assert math.isclose(pearson([1, 2, 3], [2, 4, 6]), 1.0)

    def test_pearson_validation(self):
        with pytest.raises(ValueError):
            pearson([1], [1])

    def test_table_renders(self):
        t = Table("Title", ["a", "b"])
        t.add_row(1, 2.5)
        out = t.render()
        assert "Title" in out and "2.5" in out

    def test_table_row_width_checked(self):
        t = Table("T", ["a"])
        with pytest.raises(ValueError):
            t.add_row(1, 2)


class TestStallBreakdown:
    def test_record_and_total(self):
        sb = StallBreakdown()
        sb.record(None)
        sb.record("mem")
        sb.record("token")
        assert sb.issued == 1 and sb.mem == 1 and sb.token == 1
        assert sb.total == 3

    def test_unknown_reason_raises(self):
        sb = StallBreakdown()
        with pytest.raises(ValueError, match="weird"):
            sb.record("weird")
        assert sb.total == 0

    def test_merge(self):
        a, b = StallBreakdown(), StallBreakdown()
        a.record(None)
        b.record("flush")
        a.merge(b)
        assert a.issued == 1 and a.flush == 1

    def test_determinism_overhead_fraction(self):
        sb = StallBreakdown()
        sb.record(None)
        sb.record("token")
        assert sb.determinism_overhead_fraction() == 0.5


class TestSimResult:
    def mk(self, cycles=100, instrs=50, atomics=5):
        return SimResult(label="x", cycles=cycles, instructions=instrs,
                         atomics=atomics, kernels=1, mem_digest="d")

    def test_ipc(self):
        assert self.mk().ipc == 0.5

    def test_atomics_pki(self):
        assert self.mk().atomics_per_kilo_instr == 100.0

    def test_normalized(self):
        assert self.mk(cycles=200).normalized_to(self.mk(cycles=100)) == 2.0

    def test_normalized_zero_baseline(self):
        with pytest.raises(ValueError):
            self.mk().normalized_to(self.mk(cycles=0))

    def test_summary_contains_label(self):
        assert "x:" in self.mk().summary()


class TestHWModel:
    def test_correlation_stats(self):
        corr, err = correlation_and_error([1, 2, 3], [1.1, 2.2, 2.9])
        assert 0.9 < corr <= 1.0
        assert 0 < err < 0.2

    def test_analytic_ipc_positive(self):
        r = SimResult(label="w", cycles=1000, instructions=500, atomics=5,
                      kernels=1, mem_digest="d")
        r.stalls.record(None)
        r.stalls.record("mem")
        ipc = analytic_hw_ipc(r, GPUConfig.small())
        assert ipc > 0

    def test_perturbation_is_deterministic(self):
        r = SimResult(label="w", cycles=1000, instructions=500, atomics=5,
                      kernels=1, mem_digest="d")
        r.stalls.record(None)
        cfg = GPUConfig.small()
        assert analytic_hw_ipc(r, cfg) == analytic_hw_ipc(r, cfg)


class TestGraphs:
    def test_all_table2_graphs_generate(self):
        for name in TABLE2_GRAPHS:
            g = generate(name, scale=max(64, TABLE2_GRAPHS[name].default_scale))
            g.validate()
            assert g.num_nodes >= 16
            assert g.num_edges >= g.num_nodes

    def test_generation_is_seeded(self):
        g1 = generate("FA", 64, seed=3)
        g2 = generate("FA", 64, seed=3)
        assert (g1.col_idx == g2.col_idx).all()
        g3 = generate("FA", 64, seed=4)
        assert not np.array_equal(g1.col_idx, g3.col_idx)

    def test_no_self_loops(self):
        g = generate("fol", 64)
        for u in range(g.num_nodes):
            nbrs = g.col_idx[g.row_ptr[u]:g.row_ptr[u + 1]]
            assert (nbrs != u).all()

    def test_density_ordering_preserved(self):
        dense = generate("1k", 32)
        sparse = generate("ama", 1024)
        assert dense.num_edges / dense.num_nodes > sparse.num_edges / sparse.num_nodes

    def test_unknown_graph_rejected(self):
        with pytest.raises(ValueError):
            generate("nope")

    def test_bfs_reference(self):
        g = generate("1k", 32)
        reached, depth = connected_bfs_depth(g)
        assert reached > 1 and depth >= 1

    def test_power_law_has_skew(self):
        g = generate("CNR", 512)
        degs = np.diff(g.row_ptr)
        assert degs.max() >= 4 * max(1.0, degs.mean())
