"""Every paper table and figure at full scale, with its shape checks.

One test per :data:`repro.harness.experiments.FIGURES` entry: the figure
runs once under pytest-benchmark, its table is archived as
``benchmarks/results/<stem>.{txt,json}`` and its check asserts the
paper's shape on ``table.data``.  Run with::

    python -m pytest benchmarks/bench_figures.py -q --jobs 2
"""

import pytest

from benchmarks.conftest import record_table, run_once
from repro.harness.experiments import FIGURES, run_figure
from repro.harness.report import geomean


def check_fig01(d):
    """The exact numbers of the paper's base-10 rounding example."""
    assert d["(a+b)+c"] == "1.01"
    assert d["(b+c)+a"] == "1.00"
    assert d["differ"]


def check_fig02(data):
    """Locks are 1-2 orders of magnitude slower than atomicAdd, more so
    with contention; DAB's atomicAdd stays near the baseline's."""
    sizes = sorted(data)
    for n in sizes:
        row = data[n]
        # every lock much slower than atomicAdd
        for alg in ("ts", "ts_backoff", "tts"):
            assert row[alg] > 5.0, (n, alg, row[alg])
        # DAB atomicAdd stays within 2x of baseline atomicAdd
        assert row["DAB atomicAdd"] < 2.0
    # lock overhead grows with contention
    assert data[sizes[-1]]["ts"] > data[sizes[0]]["ts"]


def check_fig03(d):
    """GPUDet is 2-10x slower than the baseline and atomic-intensive
    workloads spend most of its time in serial mode."""
    for name, row in d.items():
        assert row["slowdown"] > 1.2, name
        assert row["serial"] > row["commit"], name
    # graphs: serial mode dominates (paper: "majority of the execution
    # time in serial mode")
    graph_rows = [r for n, r in d.items() if n.startswith(("BC", "PRK"))]
    assert any(r["serial"] > 0.4 for r in graph_rows)


def check_fig09(d):
    """IPC correlates with the analytic hardware stand-in (no GPU here;
    DESIGN.md substitutions): the machinery, not TITAN V fidelity."""
    assert d["correlation"] > 0.5
    assert d["error"] < 1.0


def check_fig10(d):
    """DAB ~1.23x geomean slowdown, GPUDet 2-4x; DAB beats GPUDet on
    every workload."""
    gm = d.pop("geomean")
    # headline numbers: DAB modest slowdown, GPUDet severe
    assert gm["DAB"] < 1.6
    assert gm["GPUDet"] > 1.5
    assert gm["DAB"] < gm["GPUDet"]
    # DAB wins or ties GPUDet on every workload
    for name, row in d.items():
        assert row["DAB"] <= row["GPUDet"] * 1.05, name


def check_fig11(d):
    """SRR is the most restrictive policy; GTRR/GTAR/GWAT match or beat
    it, GWAT best overall."""
    gm = {pol: geomean([row[pol] for row in d.values()])
          for pol in ("SRR", "GTRR", "GTAR", "GWAT")}
    assert gm["GWAT"] <= gm["SRR"] * 1.02
    assert gm["GTAR"] <= gm["SRR"] * 1.05


def check_fig12(d):
    """Graphs improve with buffer capacity; convolutions barely move."""
    graphs = {n: r for n, r in d.items() if n.startswith(("BC", "PRK"))}
    gm32 = geomean([r["GWAT-32"] for r in graphs.values()])
    gm256 = geomean([r["GWAT-256"] for r in graphs.values()])
    assert gm256 <= gm32  # bigger buffers help graphs overall


def check_fig13(d):
    """Fusion helps graphs; the misaligned 3x3 layers fuse nothing on
    the full machine (same-region CTAs never share a scheduler)."""
    graphs = {n: r for n, r in d.items() if n.startswith(("BC", "PRK"))}
    gm = lambda key: geomean([r[key] for r in graphs.values()])
    assert gm("GWAT-32-AF") <= gm("GWAT-32")
    assert gm("GWAT-64-AF") <= gm("GWAT-64")
    # misaligned 3x3 layers: no fusion at all
    for name, row in d.items():
        if name.endswith("_2"):
            assert row["GWAT-64-AF_fused"] == 0, name


def check_fig14(d):
    """Fewer SMs (paper 72 of 80, here 6 of 8) speed the 3x3 layers up,
    because same-region CTAs then share a scheduler and fuse."""
    for layer, row in d.items():
        assert row["fused_full"] == 0, layer
        assert row["fused_gated"] > 0, layer
        assert row["gated"] < row["full"], (
            f"{layer}: gated machine should win despite fewer SMs"
        )


def check_fig15(d):
    """Scheduler-slot fractions sum to one and include issued work."""
    for name, fr in d.items():
        total = sum(fr.values())
        assert 0.99 < total < 1.01, name
        assert fr["issued"] > 0, name


def check_fig16(d):
    """Offset flushing costs ~nothing.  (The paper's cnv2_3 speed-up
    does not appear at this scale; EXPERIMENTS.md says why.)"""
    for layer, row in d.items():
        assert row["GWAT-64-AF + offset"] <= row["GWAT-64-AF"] * 1.1, layer


def check_fig17(d):
    """Coalescing same-sector flush entries helps convolutions (paper:
    ~13% geomean) by cutting interconnect traffic."""
    gm = d["geomean"]
    assert gm["GWAT-64-AF-Coal"] < gm["GWAT-64-AF"], (
        "coalescing should help convs overall")
    # traffic reduction is the mechanism
    layers = [r for n, r in d.items() if n != "geomean"]
    assert all(r["packets w/ coal"] < r["icnt packets"] for r in layers)


def check_fig18(d):
    """Relaxing reordering (NR), flush overlap (OF) and the cross-cluster
    barrier (CIF) progressively recovers performance."""
    gm = {v: geomean([row[v] for row in d.values()])
          for v in ("DAB", "DAB-NR", "DAB-NR-OF", "DAB-NR-CIF")}
    assert gm["DAB-NR"] <= gm["DAB"] * 1.02
    assert gm["DAB-NR-CIF"] <= gm["DAB-NR"] * 1.02


def check_table1(d):
    """The paper's TITAN V configuration, verbatim."""
    assert d["# Streaming Multiprocessors (SM)"] == 80
    assert d["Max Warps / SM"] == 64
    assert d["Number of Warp Schedulers / SM"] == 4
    assert d["L2 Unified Cache (bytes)"] == int(4.5 * 1024 * 1024)


def check_table2(d):
    """PageRank (coA) has the highest atomics PKI; the dense random
    graphs are atomic-denser than amazon0302/CNR."""
    assert d["coA"]["sim_pki"] == max(r["sim_pki"] for r in d.values())
    assert d["1k"]["sim_pki"] > d["ama"]["sim_pki"]
    assert d["1k"]["sim_pki"] > d["CNR"]["sim_pki"]


def check_table3(d):
    """Every ResNet layer issues atomics."""
    for name, row in d.items():
        assert row["sim_pki"] > 0, name


def check_determinism(d):
    """Under jitter the baseline's digest varies; DAB's and GPUDet's
    do not (Section V)."""
    assert not d["baseline"]["deterministic"], (
        "baseline should scramble the order-sensitive sum under jitter"
    )
    for label, row in d.items():
        if label == "baseline":
            continue
        assert row["deterministic"], label


def check_ablation(d):
    """Scheduler-level buffering performs like warp-level buffering at
    1/16 of the area (Section VI-A)."""
    d = dict(d)
    area = d.pop("area_bytes_per_sm")
    # 16x area reduction (64 warps -> 4 schedulers)
    assert area["warp-level"] // area["scheduler-level"] == 16
    gw = geomean([r["warp-level"] for r in d.values()])
    gs = geomean([r["scheduler-level"] for r in d.values()])
    # "performs similarly": within ~20% of each other overall
    assert gs < gw * 1.2


#: registry name -> (archive stem under benchmarks/results/, check)
CHECKS = {
    "fig01": ("fig01_rounding", check_fig01),
    "fig02": ("fig02_locks", check_fig02),
    "fig03": ("fig03_gpudet_modes", check_fig03),
    "fig09": ("fig09_correlation", check_fig09),
    "fig10": ("fig10_overall", check_fig10),
    "fig11": ("fig11_schedulers", check_fig11),
    "fig12": ("fig12_capacity", check_fig12),
    "fig13": ("fig13_fusion", check_fig13),
    "fig14": ("fig14_gating", check_fig14),
    "fig15": ("fig15_overheads", check_fig15),
    "fig16": ("fig16_offset", check_fig16),
    "fig17": ("fig17_coalescing", check_fig17),
    "fig18": ("fig18_relaxed", check_fig18),
    "table1": ("table1_config", check_table1),
    "table2": ("table2_graphs", check_table2),
    "table3": ("table3_layers", check_table3),
    "determinism": ("determinism_validation", check_determinism),
    "ablation-buffer-level": ("ablation_buffer_level", check_ablation),
}


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure(benchmark, name):
    stem, check = CHECKS[name]
    table = run_once(benchmark, run_figure, name)
    record_table(stem, table)
    check(table.data)
