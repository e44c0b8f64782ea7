"""One entry per paper table/figure (index in DESIGN.md §4).

:data:`FIGURES` maps each ``repro experiment`` name to a figure.  A
simulated figure is a list of ``repro.campaign/v1`` figure documents
(its *matrices*; ``quick=True`` picks test-sized workload sets) plus a
*reducer* from the result grid to a :class:`repro.harness.report.Table`,
with raw data in ``table.data``.  Fig 1 and Table I simulate nothing:
their reducer is a function of nothing.  Every figure carries the
paper's claims about its table (:class:`Claim`), each stated once, as
one measured number and one bound; :func:`judge_claims` judges them,
and the quick tests, ``benchmarks/bench_figures.py`` and EXPERIMENTS.md
all read the verdicts.

:func:`run_figure` runs the matrices as one campaign
(:func:`~repro.campaign.runner.run_campaign`): the sweep engine runs and
caches the jobs (DESIGN.md §9) and the run database records them
(DESIGN.md §13).  Reducers look results up by name, so the tables are
byte-identical at any number of worker processes.

Scaling discipline: all workloads run at the recorded reduced scales of
``repro.workloads`` on the ``GPUConfig.small()`` machine (8 SMs / 4
partitions); the reproduction target is the *shape* of each result —
who wins, by roughly what factor, where crossovers fall — not absolute
cycle counts (see EXPERIMENTS.md).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.rundb import RunDB
from repro.campaign.runner import CampaignSummary, run_campaign
from repro.campaign.spec import Campaign, parse_campaign
from repro.config import GPUConfig
from repro.core.dab import DABConfig
from repro.fp.decimal_toy import figure1_example
from repro.harness.hwmodel import analytic_hw_ipc, correlation_and_error
from repro.harness.report import Table, geomean
from repro.sim.results import SimResult
from repro.workloads.convolution import CONV_LAYER_NAMES, RESNET_LAYERS
from repro.workloads.graphs import TABLE2_GRAPHS, generate
from repro.workloads.locks import LOCK_ALGORITHMS

# ----------------------------------------------------------------------
# Standard workload sets (campaign workload entries).  Scales are chosen
# so one run completes in roughly a second on the small machine.
# ----------------------------------------------------------------------

GRAPH_SCALES: Dict[str, int] = {
    "1k": 32, "2k": 64, "FA": 32, "fol": 32, "ama": 512, "CNR": 512,
    "coA": 2048,
}


def graph_workloads(quick: bool = False) -> List[dict]:
    names = ["1k", "FA"] if quick else ["1k", "2k", "FA", "fol", "ama", "CNR"]
    out = [{"name": f"BC {n}", "factory": "bc", "args": [n, GRAPH_SCALES[n]]}
           for n in names]
    out.append({"name": "PRK coA", "factory": "pagerank",
                "args": ["coA", GRAPH_SCALES["coA"]],
                "kwargs": {"iterations": 1 if quick else 2}})
    return out


def conv_workloads(quick: bool = False) -> List[dict]:
    names = ["cnv2_1", "cnv2_2"] if quick else list(CONV_LAYER_NAMES)
    return [_conv(n) for n in names]


def all_workloads(quick: bool = False) -> List[dict]:
    return graph_workloads(quick) + conv_workloads(quick)


def _conv(layer: str) -> dict:
    return {"name": layer, "factory": "conv", "args": [layer]}


# ----------------------------------------------------------------------
# Architectures (campaign arch entries) and figure documents.  A DAB
# arch's name is its column header and its label.
# ----------------------------------------------------------------------

BASELINE = {"name": "baseline", "kind": "baseline"}
GPUDET = {"name": "GPUDet", "kind": "gpudet"}
#: GWAT-64-AF, the base of the fusion and flush studies.
GWAT_64_AF = {"scheduler": "gwat", "buffer_entries": 64, "fusion": True}
#: GWAT-64-AF-Coalescing, the Fig 10 headline configuration.
PAPER_DAB = {**GWAT_64_AF, "coalescing": True}


def _dab(name: str, **dab) -> dict:
    return {"name": name, "kind": "dab", "dab": dab}


def _matrix(name: str, workloads: List[dict], archs: List[dict],
            **knobs) -> dict:
    """One figure document, normalized to the baseline when it runs one
    beside other archs (the dashboard's slowdown column)."""
    normalize = "baseline" if BASELINE in archs and len(archs) > 1 else ""
    return {"name": name, "normalize": normalize, "workloads": workloads,
            "archs": archs, **knobs}


class Grid:
    """A figure run's results by matrix, workload, arch, seed and plan
    name; the plan is a faulted job's fault seed, None for the rest."""

    def __init__(self, campaign: Campaign, summary: CampaignSummary) -> None:
        #: (matrix, workload, arch, seed, plan) -> SimResult
        self.results: Dict[tuple, SimResult] = {}
        #: matrix -> workload / arch names, in document order
        self.workloads: Dict[str, List[str]] = {}
        self.archs: Dict[str, List[str]] = {}
        #: arch name -> its DAB config (None for baseline and GPUDet)
        self.dab_configs: Dict[str, Optional[DABConfig]] = {}
        for figure, done in zip(campaign.figures, summary.figures):
            for job, result in zip(figure.jobs, done.results):
                plan = (job.spec.fault_seed if job.spec.faults is not None
                        else None)
                self.results[figure.name, job.workload, job.arch, job.seed,
                             plan] = result
                self.dab_configs[job.arch] = job.spec.arch.dab
            self.workloads[figure.name] = list(
                dict.fromkeys(job.workload for job in figure.jobs))
            self.archs[figure.name] = list(
                dict.fromkeys(job.arch for job in figure.jobs))

    def __getitem__(self, key: tuple) -> SimResult:
        """``grid[matrix, workload, arch]``: the seed-1 unfaulted result."""
        return self.results[(*key, 1, None)]

    def runs(self, matrix: str, arch: str) -> List[SimResult]:
        """Every result of ``arch`` in ``matrix``, in job order."""
        return [r for (m, _w, a, _s, _p), r in self.results.items()
                if m == matrix and a == arch]


def _slowdowns(grid: Grid, matrix: str, title: str, first: str,
               columns: Optional[List[str]] = None,
               extra: Optional[Callable[[str], dict]] = None) -> Table:
    """One row per workload of ``matrix``: each arch's cycles over the
    baseline's.

    ``columns`` follow the ``first`` (row label) column; by default they
    are the matrix's archs other than the baseline.  A column is an arch
    name or a key of ``extra(workload)``, which adds entries to the row.
    ``table.data`` maps each workload to its row, without the baseline's
    own 1.0.
    """
    archs = grid.archs[matrix]
    if columns is None:
        columns = [a for a in archs if a != "baseline"]
    t = Table(title, [first] + columns)
    data = {}
    for wl in grid.workloads[matrix]:
        base = grid[matrix, wl, "baseline"].cycles
        row = {a: grid[matrix, wl, a].cycles / base for a in archs}
        row.update(extra(wl) if extra else {})
        t.add_row(wl, *(row[c] for c in columns))
        del row["baseline"]
        data[wl] = row
    t.data = data  # type: ignore[attr-defined]
    return t


# ----------------------------------------------------------------------
# Claims: the paper's statements about a figure, as bounds on one
# measured number each.
# ----------------------------------------------------------------------

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Claim:
    """One named paper claim about a figure's ``table.data``.

    ``measure`` is a pure function of the data that returns one number
    and never mutates the data; the claim holds when ``measure(data)
    <op> bound``, ``op`` one of ``<``, ``<=``, ``>``, ``>=`` and ``==``.
    A row-wise condition counts its violating rows and is bounded by 0.
    The bound is the same at both scales; a ``full_only`` claim is
    judged at full scale only, because its rows are absent from the
    quick workload set.
    """

    name: str
    measure: Callable[[dict], float]
    op: str
    bound: float
    full_only: bool = False


@dataclass(frozen=True)
class Verdict:
    """A claim judged on one table: its measured number and whether the
    bound holds."""

    figure: str
    claim: Claim
    measured: float

    @property
    def holds(self) -> bool:
        return _OPS[self.claim.op](self.measured, self.claim.bound)

    def __str__(self) -> str:
        state = "holds" if self.holds else "does not hold"
        return (f"{self.figure}: claim {self.claim.name!r} {state}: "
                f"measured {number(self.measured)}, bound {self.claim.op} "
                f"{number(self.claim.bound)}")


def number(value: float) -> str:
    """A claim's measured value or bound, to four significant digits."""
    return f"{value:.4g}"


#: ``table.data`` keys that are summaries, not workload rows.
_SUMMARIES = ("geomean", "area_bytes_per_sm")


def _rows(d: dict) -> List[dict]:
    """The workload rows of ``d``, without its summaries."""
    return [r for k, r in d.items() if k not in _SUMMARIES]


def _graphs(d: dict) -> List[dict]:
    return [r for k, r in d.items() if k.startswith(("BC", "PRK"))]


def _convs(d: dict) -> List[dict]:
    return [r for k, r in d.items() if k.startswith("cnv")]


def _violations(bad: Callable[[dict], bool],
                rows: Callable[[dict], List[dict]] = _rows):
    """The measure of a row-wise claim: how many rows are ``bad``."""
    return lambda d: sum(1 for r in rows(d) if bad(r))


def _gm_ratio(num: str, den: str,
              rows: Callable[[dict], List[dict]] = _rows):
    """The measure ``geomean(num column) / geomean(den column)``."""
    return lambda d: (geomean(r[num] for r in rows(d))
                      / geomean(r[den] for r in rows(d)))


# ----------------------------------------------------------------------
# Figure 1 — base-10 rounding example.
# ----------------------------------------------------------------------

def fig01_rounding() -> Table:
    ex = figure1_example()
    t = Table(
        "Fig 1: non-deterministic reduction example (base-10, 3 digits, round up)",
        ["ordering", "result"],
    )
    t.add_row("(a+b)+c", ex["(a+b)+c"])
    t.add_row("(b+c)+a", ex["(b+c)+a"])
    t.data = ex  # type: ignore[attr-defined]
    return t


#: The paper's two results, digit for digit.
_FIG01_PAPER = {"(a+b)+c": "1.01", "(b+c)+a": "1.00"}

_FIG01_CLAIMS = (
    Claim("orderings whose result is not the paper's",
          lambda d: sum(d[k] != v for k, v in _FIG01_PAPER.items()),
          "<=", 0),
    Claim("the two orderings differ (1 = yes)",
          lambda d: int(d["differ"]), "==", 1),
)


# ----------------------------------------------------------------------
# Figure 2 — atomicAdd on DAB vs locking algorithms on baseline GPU.
# ----------------------------------------------------------------------

def _fig02_matrices(quick: bool) -> List[dict]:
    sizes = (32, 64) if quick else (32, 64, 128)
    return [
        _matrix("fig02",
                [{"name": str(n), "factory": "atomic_sum", "args": [n]}
                 for n in sizes],
                [BASELINE, _dab("DAB atomicAdd", **PAPER_DAB)]),
        _matrix("fig02_locks",
                [{"name": f"{alg} {n}", "factory": "lock_sum",
                  "args": [alg, n]}
                 for n in sizes for alg in LOCK_ALGORITHMS],
                [BASELINE]),
    ]


def fig02_locks(grid: Grid) -> Table:
    t = Table(
        "Fig 2: atomicAdd (DAB) vs locking algorithms (baseline GPU), "
        "normalized to baseline atomicAdd",
        ["array size", "atomicAdd", "DAB atomicAdd"] + list(LOCK_ALGORITHMS),
    )
    data: Dict[int, Dict[str, float]] = {}
    for n in grid.workloads["fig02"]:
        base = grid["fig02", n, "baseline"].cycles
        row = {"atomicAdd": 1.0,
               "DAB atomicAdd": grid["fig02", n, "DAB atomicAdd"].cycles / base}
        for alg in LOCK_ALGORITHMS:
            row[alg] = grid["fig02_locks", f"{alg} {n}", "baseline"].cycles / base
        data[int(n)] = row
        t.add_row(n, *row.values())
    t.data = data  # type: ignore[attr-defined]
    return t


_FIG02_CLAIMS = (
    Claim("fastest lock over atomicAdd, any size",
          lambda d: min(r[alg] for r in d.values() for alg in LOCK_ALGORITHMS),
          ">", 5.0),
    Claim("DAB atomicAdd over baseline atomicAdd, any size",
          lambda d: max(r["DAB atomicAdd"] for r in d.values()), "<", 2.0),
    Claim("Test&Set at the largest size over the smallest",
          lambda d: d[max(d)]["ts"] / d[min(d)]["ts"], ">", 1.0),
)


# ----------------------------------------------------------------------
# Figure 3 — GPUDet execution-mode breakdown.
# ----------------------------------------------------------------------

def _fig03_matrices(quick: bool) -> List[dict]:
    return [_matrix("fig03",
                    graph_workloads(quick)[:3] + conv_workloads(quick)[:3],
                    [BASELINE, GPUDET])]


def fig03_gpudet_modes(grid: Grid) -> Table:
    t = Table(
        "Fig 3: GPUDet execution mode breakdown (fractions of GPUDet time) "
        "and slowdown vs baseline",
        ["workload", "parallel", "commit", "serial", "slowdown"],
    )
    data = {}
    for name in grid.workloads["fig03"]:
        base, det = grid["fig03", name, "baseline"], grid["fig03", name, "GPUDet"]
        total = max(1, sum(det.gpudet_mode_cycles.values()))
        fr = {m: det.gpudet_mode_cycles.get(m, 0) / total
              for m in ("parallel", "commit", "serial")}
        slow = det.cycles / base.cycles
        data[name] = {**fr, "slowdown": slow}
        t.add_row(name, fr["parallel"], fr["commit"], fr["serial"], slow)
    t.data = data  # type: ignore[attr-defined]
    return t


_FIG03_CLAIMS = (
    Claim("lowest GPUDet slowdown",
          lambda d: min(r["slowdown"] for r in d.values()), ">", 1.2),
    Claim("lowest graph slowdown over highest conv slowdown",
          lambda d: (min(r["slowdown"] for r in _graphs(d))
                     / max(r["slowdown"] for r in _convs(d))), ">", 1.0),
    Claim("highest serial fraction on a graph",
          lambda d: max(r["serial"] for r in _graphs(d)), ">", 0.4),
    Claim("rows where serial mode does not exceed commit mode",
          _violations(lambda r: r["serial"] <= r["commit"]), "<=", 0),
    Claim("largest distance of a row's mode fractions from a sum of 1",
          lambda d: max(abs(r["parallel"] + r["commit"] + r["serial"] - 1.0)
                        for r in d.values()), "<", 0.01),
)


# ----------------------------------------------------------------------
# Tables I-III.
# ----------------------------------------------------------------------

def table1_config() -> Table:
    cfg = GPUConfig.titan_v()
    small = GPUConfig.small()
    t = Table("Table I: GPGPU-Sim configuration (paper) vs scaled preset",
              ["parameter", "paper (TITAN V)", "small preset"])
    small_rows = dict(small.table1_rows())
    for key, value in cfg.table1_rows():
        t.add_row(key, value, small_rows[key])
    t.data = dict(cfg.table1_rows())  # type: ignore[attr-defined]
    return t


#: The paper's Table I, verbatim.
_TABLE1_PAPER = {
    "# Compute Clusters": 40,
    "# SM / Compute Cluster": 2,
    "# Streaming Multiprocessors (SM)": 80,
    "Max Warps / SM": 64,
    "Warp Size": 32,
    "Number of Threads / SM": 2048,
    "Baseline Scheduler": "GTO",
    "Number of Warp Schedulers / SM": 4,
    "Number of Registers / SM": 65536,
    "L1 Data Cache (bytes)": 128 * 1024,
    "L2 Unified Cache (bytes)": int(4.5 * 1024 * 1024),
    "DRAM request queue capacity": 32,
    "Interconnect Flit Size": 40,
    "Interconnect Input Buffer Size": 256,
    "Cluster Ejection Buffer Size": 32,
}

_TABLE1_CLAIMS = (
    Claim("parameters off the paper's Table I",
          lambda d: sum(d.get(k) != v for k, v in _TABLE1_PAPER.items()),
          "<=", 0),
)


def _table2_matrices(quick: bool) -> List[dict]:
    names = ["1k", "FA"] if quick else list(TABLE2_GRAPHS)
    return [_matrix("table2", [
        {"name": n, "factory": "pagerank", "args": [n, GRAPH_SCALES[n]],
         "kwargs": {"iterations": 2}} if n == "coA"
        else {"name": n, "factory": "bc", "args": [n, GRAPH_SCALES[n]]}
        for n in names
    ], [BASELINE])]


def table2_graphs(grid: Grid) -> Table:
    t = Table(
        "Table II: graph datasets (paper scale vs simulated scale) "
        "with measured atomics PKI",
        ["graph", "paper nodes", "paper edges", "paper PKI",
         "sim nodes", "sim edges", "sim PKI"],
    )
    data = {}
    for name in grid.workloads["table2"]:
        spec = TABLE2_GRAPHS[name]
        g = generate(name, GRAPH_SCALES[name])
        pki = grid["table2", name, "baseline"].atomics_per_kilo_instr
        data[name] = {"sim_nodes": g.num_nodes, "sim_edges": g.num_edges,
                      "sim_pki": pki, "paper_pki": spec.paper_atomics_pki}
        t.add_row(name, spec.paper_nodes, spec.paper_edges,
                  spec.paper_atomics_pki, g.num_nodes, g.num_edges, pki)
    t.data = data  # type: ignore[attr-defined]
    return t


_TABLE2_CLAIMS = (
    Claim("lowest simulated PKI",
          lambda d: min(r["sim_pki"] for r in d.values()), ">", 0),
    Claim("rows where the simulated PKI is not above the paper's",
          _violations(lambda r: r["sim_pki"] <= r["paper_pki"]), "<=", 0),
    Claim("PageRank coA PKI over the heaviest other graph",
          lambda d: d["coA"]["sim_pki"] / max(
              r["sim_pki"] for k, r in d.items() if k != "coA"),
          ">=", 1.0, full_only=True),
    Claim("lighter of 1k/2k PKI over the heavier of ama/CNR",
          lambda d: (min(d[k]["sim_pki"] for k in ("1k", "2k"))
                     / max(d[k]["sim_pki"] for k in ("ama", "CNR"))),
          ">", 1.0, full_only=True),
)


def _table3_matrices(quick: bool) -> List[dict]:
    return [_matrix("table3", conv_workloads(quick), [BASELINE])]


def table3_layers(grid: Grid) -> Table:
    t = Table(
        "Table III: ResNet backward-filter layers (paper dims vs simulated) "
        "with measured atomics PKI",
        ["layer", "paper filter", "paper PKI", "sim filter elems",
         "regions", "CTAs", "sim PKI"],
    )
    data = {}
    for name in grid.workloads["table3"]:
        cfg = RESNET_LAYERS[name]
        pki = grid["table3", name, "baseline"].atomics_per_kilo_instr
        data[name] = {"sim_pki": pki, "paper_pki": cfg.paper_atomics_pki}
        t.add_row(name, cfg.paper_filter, cfg.paper_atomics_pki,
                  cfg.filter_elems, cfg.regions, cfg.grid_dim, pki)
    t.data = data  # type: ignore[attr-defined]
    return t


_TABLE3_CLAIMS = (
    Claim("lowest simulated PKI",
          lambda d: min(r["sim_pki"] for r in d.values()), ">", 0),
)


# ----------------------------------------------------------------------
# Figure 9 — IPC correlation against the hardware stand-in.
# ----------------------------------------------------------------------

def _fig09_matrices(quick: bool) -> List[dict]:
    return [_matrix("fig09", all_workloads(quick), [BASELINE])]


def fig09_correlation(grid: Grid) -> Table:
    cfg = GPUConfig.small()
    sims: List[float] = []
    hws: List[float] = []
    t = Table(
        "Fig 9: simulator IPC vs hardware-model IPC (stand-in; see DESIGN.md)",
        ["workload", "sim IPC", "hw-model IPC"],
    )
    for name in grid.workloads["fig09"]:
        res = grid["fig09", name, "baseline"]
        hw = analytic_hw_ipc(res, cfg)
        sims.append(res.ipc)
        hws.append(hw)
        t.add_row(name, res.ipc, hw)
    corr, err = correlation_and_error(sims, hws)
    t.add_row("correlation", corr, "")
    t.add_row("mean rel err", err, "")
    t.data = {"correlation": corr, "error": err,  # type: ignore[attr-defined]
              "sim": sims, "hw": hws}
    return t


_FIG09_CLAIMS = (
    Claim("IPC correlation", lambda d: d["correlation"], ">", 0.5),
    Claim("IPC correlation magnitude", lambda d: abs(d["correlation"]),
          "<=", 1.0),
    Claim("mean relative IPC error", lambda d: d["error"], "<", 1.0),
)


# ----------------------------------------------------------------------
# Figure 10 — overall performance.
# ----------------------------------------------------------------------

def _fig10_matrices(quick: bool) -> List[dict]:
    return [_matrix("fig10", all_workloads(quick),
                    [BASELINE, _dab("DAB", **PAPER_DAB), GPUDET])]


def fig10_overall(grid: Grid) -> Table:
    t = _slowdowns(
        grid, "fig10",
        "Fig 10: DAB (GWAT-64-AF-Coalescing) and GPUDet, "
        "normalized to the non-deterministic baseline (lower is better)",
        "workload", ["baseline", "DAB", "GPUDet"],
    )
    gm = {a: geomean([r[a] for r in t.data.values()]) for a in ("DAB", "GPUDet")}
    t.add_row("geomean", 1.0, gm["DAB"], gm["GPUDet"])
    t.data["geomean"] = gm
    return t


_FIG10_CLAIMS = (
    Claim("DAB geomean slowdown", lambda d: d["geomean"]["DAB"], "<", 1.6),
    Claim("GPUDet geomean slowdown", lambda d: d["geomean"]["GPUDet"],
          ">", 1.5),
    Claim("DAB geomean over GPUDet geomean",
          lambda d: d["geomean"]["DAB"] / d["geomean"]["GPUDet"], "<", 1.0),
    Claim("rows where DAB is slower than 1.05x GPUDet",
          _violations(lambda r: r["DAB"] > r["GPUDet"] * 1.05), "<=", 0),
)


# ----------------------------------------------------------------------
# Figure 11 — scheduling policies.
# ----------------------------------------------------------------------

def _fig11_matrices(quick: bool) -> List[dict]:
    # The narrow machine is slow to simulate (everything serializes onto
    # two SMs); use one representative per workload class.
    if quick:
        workloads = all_workloads(True)
    else:
        picks = {"BC 1k", "BC FA", "PRK coA", "cnv2_1", "cnv2_2", "cnv3_3"}
        workloads = [w for w in all_workloads(False) if w["name"] in picks]
    archs = [BASELINE, _dab("WarpGTO", buffer_level="warp",
                            buffer_entries=32, scheduler="gto")]
    archs += [_dab(s.upper(), buffer_entries=256, scheduler=s)
              for s in ("srr", "gtrr", "gtar", "gwat")]
    # The policy study runs on the "narrow" machine (2 SMs, 8 slots per
    # scheduler) so schedulers actually face multiple warps — the
    # saturated-SM regime where the paper's Fig 11 differences appear.
    return [_matrix("fig11", workloads, archs, preset="narrow")]


def fig11_schedulers(grid: Grid) -> Table:
    return _slowdowns(
        grid, "fig11",
        "Fig 11: scheduling policies (scheduler-level 256-entry "
        "buffers, narrow machine), normalized to baseline", "workload")


_FIG11_CLAIMS = (
    Claim("GWAT geomean over SRR geomean", _gm_ratio("GWAT", "SRR"),
          "<=", 1.02),
    Claim("GTAR geomean over SRR geomean", _gm_ratio("GTAR", "SRR"),
          "<=", 1.05),
    Claim("conv rows out of the order GWAT <= GTAR <= GTRR <= SRR",
          _violations(lambda r: not r["GWAT"] <= r["GTAR"] <= r["GTRR"]
                      <= r["SRR"], _convs), "<=", 0),
)


# ----------------------------------------------------------------------
# Figure 12 — buffer capacity.
# ----------------------------------------------------------------------

def _fig12_matrices(quick: bool) -> List[dict]:
    return [_matrix("fig12", all_workloads(quick), [BASELINE] + [
        _dab(f"GWAT-{c}", buffer_entries=c, scheduler="gwat")
        for c in (32, 64, 128, 256)
    ])]


def fig12_capacity(grid: Grid) -> Table:
    return _slowdowns(
        grid, "fig12",
        "Fig 12: GWAT buffer capacity sweep, normalized to baseline",
        "workload")


_CAPACITIES = ("GWAT-32", "GWAT-64", "GWAT-128", "GWAT-256")

_FIG12_CLAIMS = (
    Claim("graph geomean, GWAT-256 over GWAT-32",
          _gm_ratio("GWAT-256", "GWAT-32", _graphs), "<=", 1.0),
    Claim("graph rows where a larger buffer is slower",
          _violations(lambda r: any(r[big] > r[small] for small, big
                                    in zip(_CAPACITIES, _CAPACITIES[1:])),
                      _graphs), "<=", 0),
    Claim("largest conv change from GWAT-32 to GWAT-256",
          lambda d: max(abs(r["GWAT-256"] / r["GWAT-32"] - 1.0)
                        for r in _convs(d)), "<=", 0.05),
    Claim("rows where GWAT-64 is slower than 1.25x GWAT-32",
          _violations(lambda r: r["GWAT-64"] > r["GWAT-32"] * 1.25),
          "<=", 0),
)


# ----------------------------------------------------------------------
# Figure 13 — atomic fusion.
# ----------------------------------------------------------------------

def _fig13_matrices(quick: bool) -> List[dict]:
    return [_matrix("fig13", all_workloads(quick), [BASELINE] + [
        _dab(f"GWAT-{c}{'-AF' if fusion else ''}", buffer_entries=c,
             scheduler="gwat", fusion=fusion)
        for c in (32, 64) for fusion in (False, True)
    ])]


def fig13_fusion(grid: Grid) -> Table:
    return _slowdowns(
        grid, "fig13",
        "Fig 13: atomic fusion on scheduler-level buffering, "
        "normalized to baseline", "workload",
        extra=lambda wl: {f"{a}_fused": grid["fig13", wl, a].fused_atomics
                          for a in grid.archs["fig13"][1:]})


_FIG13_CLAIMS = (
    Claim("graph geomean, GWAT-32-AF over GWAT-32",
          _gm_ratio("GWAT-32-AF", "GWAT-32", _graphs), "<=", 1.0),
    Claim("graph geomean, GWAT-64-AF over GWAT-64",
          _gm_ratio("GWAT-64-AF", "GWAT-64", _graphs), "<=", 1.0),
    Claim("misaligned 3x3 (`_2`) layers that fuse on GWAT-64-AF",
          _violations(lambda r: r["GWAT-64-AF_fused"] != 0,
                      lambda d: [r for k, r in d.items()
                                 if k.endswith("_2")]), "<=", 0),
    Claim("rows where GWAT-32-AF is slower than 1.1x GWAT-32",
          _violations(lambda r: r["GWAT-32-AF"] > r["GWAT-32"] * 1.1),
          "<=", 0),
)


# ----------------------------------------------------------------------
# Figure 14 — "gating" SMs for fusion alignment.
# ----------------------------------------------------------------------

def _fig14_matrices(quick: bool) -> List[dict]:
    layers = [_conv(n) for n in
              (["cnv2_2g"] if quick else ["cnv2_2g", "cnv3_2g", "cnv4_2g"])]
    full = GPUConfig.small()                       # 8 SMs: 18 % 8 != 0
    gated = full.replace(num_clusters=3)           # 6 SMs: 18 % 6 == 0
    return [
        _matrix("fig14", layers,
                [BASELINE, _dab(f"{full.num_sms} SMs", **GWAT_64_AF)]),
        _matrix("fig14_gated", layers,
                [_dab(f"{gated.num_sms} SMs (gated)", **GWAT_64_AF)],
                gpu={"num_clusters": 3}),
    ]


def fig14_gating(grid: Grid) -> Table:
    full, gated = grid.archs["fig14"][1], grid.archs["fig14_gated"][0]
    t = Table(
        "Fig 14: gating SMs so same-region CTAs share a scheduler "
        "(GWAT-64-AF), normalized to the full-machine baseline",
        ["layer", full, gated, "fused (full)", "fused (gated)"],
    )
    data = {}
    for layer in grid.workloads["fig14"]:
        base = grid["fig14", layer, "baseline"].cycles
        res_full = grid["fig14", layer, full]
        res_gated = grid["fig14_gated", layer, gated]
        row = {
            "full": res_full.cycles / base,
            "gated": res_gated.cycles / base,
            "fused_full": res_full.fused_atomics,
            "fused_gated": res_gated.fused_atomics,
        }
        data[layer] = row
        t.add_row(layer, *row.values())
    t.data = data  # type: ignore[attr-defined]
    return t


_FIG14_CLAIMS = (
    Claim("layers that fuse on the full machine",
          _violations(lambda r: r["fused_full"] != 0), "<=", 0),
    Claim("layers that fuse nothing on the gated machine",
          _violations(lambda r: not r["fused_gated"] > 0), "<=", 0),
    Claim("layers the gated machine does not speed up",
          _violations(lambda r: not r["gated"] < r["full"]), "<=", 0),
)


# ----------------------------------------------------------------------
# Figure 15 — DAB overhead breakdown.
# ----------------------------------------------------------------------

def _fig15_matrices(quick: bool) -> List[dict]:
    return [_matrix("fig15", all_workloads(quick), [_dab("DAB", **PAPER_DAB)])]


def fig15_overheads(grid: Grid) -> Table:
    buckets = ("issued", "mem", "barrier", "inorder", "token", "round",
               "buffer_full", "flush", "batch")
    t = Table(
        "Fig 15: DAB (GWAT-64-AF-Coal) scheduler-slot breakdown "
        "(fraction of slots)",
        ["workload"] + list(buckets),
    )
    data = {}
    for name in grid.workloads["fig15"]:
        res = grid["fig15", name, "DAB"]
        d = res.stalls.as_dict()
        total = max(1, res.stalls.total)
        fr = {k: d[k] / total for k in buckets}
        data[name] = fr
        t.add_row(name, *(fr[k] for k in buckets))
    t.data = data  # type: ignore[attr-defined]
    return t


_FIG15_CLAIMS = (
    Claim("largest distance of a row's slot fractions from a sum of 1",
          lambda d: max(abs(sum(fr.values()) - 1.0) for fr in d.values()),
          "<", 0.01),
    Claim("rows without an issued slot",
          _violations(lambda fr: not fr["issued"] > 0), "<=", 0),
)


# ----------------------------------------------------------------------
# Figure 16 — offset flushing.
# ----------------------------------------------------------------------

def _fig16_matrices(quick: bool) -> List[dict]:
    layers = ["cnv2_3"] if quick else ["cnv2_3", "cnv3_3"]
    return [_matrix("fig16", [_conv(n) for n in layers], [
        BASELINE,
        _dab("GWAT-64-AF", **GWAT_64_AF),
        _dab("GWAT-64-AF + offset", **GWAT_64_AF, offset_flush=True),
    ])]


def fig16_offset(grid: Grid) -> Table:
    return _slowdowns(
        grid, "fig16",
        "Fig 16: offset flushing on GWAT-64-AF, normalized to baseline",
        "layer")


_FIG16_CLAIMS = (
    Claim("layers where offset flushing is slower than 1.1x without",
          _violations(lambda r: r["GWAT-64-AF + offset"]
                      > r["GWAT-64-AF"] * 1.1), "<=", 0),
)


# ----------------------------------------------------------------------
# Figure 17 — flush coalescing.
# ----------------------------------------------------------------------

def _fig17_matrices(quick: bool) -> List[dict]:
    return [_matrix("fig17", conv_workloads(quick), [
        BASELINE,
        _dab("GWAT-64-AF", **GWAT_64_AF),
        _dab("GWAT-64-AF-Coal", **GWAT_64_AF, coalescing=True),
    ])]


def fig17_coalescing(grid: Grid) -> Table:
    archs = ["GWAT-64-AF", "GWAT-64-AF-Coal"]
    packets = ["icnt packets", "packets w/ coal"]
    t = _slowdowns(
        grid, "fig17",
        "Fig 17: coalescing buffer flushes on convolutions (GWAT-64-AF), "
        "normalized to baseline", "layer", archs + packets,
        extra=lambda wl: {p: grid["fig17", wl, a].icnt_packets
                          for p, a in zip(packets, archs)})
    gm = {a: geomean([r[a] for r in t.data.values()]) for a in archs}
    t.add_row("geomean", *gm.values(), "", "")
    t.data["geomean"] = gm
    return t


_FIG17_CLAIMS = (
    Claim("geomean, GWAT-64-AF-Coal over GWAT-64-AF",
          lambda d: (d["geomean"]["GWAT-64-AF-Coal"]
                     / d["geomean"]["GWAT-64-AF"]), "<", 1.0),
    Claim("layers where coalescing does not cut interconnect packets",
          _violations(lambda r: not r["packets w/ coal"] < r["icnt packets"]),
          "<=", 0),
)


# ----------------------------------------------------------------------
# Figure 18 — limitation study (relaxed constraints).
# ----------------------------------------------------------------------

def _fig18_matrices(quick: bool) -> List[dict]:
    workloads = all_workloads(True) if quick \
        else graph_workloads(False)[:3] + conv_workloads(False)[:3]
    nr = {**GWAT_64_AF, "relax_no_reorder": True}
    of = {**nr, "relax_overlap_flush": True}
    return [_matrix("fig18", workloads, [
        BASELINE,
        _dab("DAB", **GWAT_64_AF),
        _dab("DAB-NR", **nr),
        _dab("DAB-NR-OF", **of),
        _dab("DAB-NR-CIF", **of, relax_cluster_flush=True),
    ])]


def fig18_relaxed(grid: Grid) -> Table:
    return _slowdowns(
        grid, "fig18",
        "Fig 18: DAB with constraints relaxed (non-deterministic), "
        "normalized to baseline", "workload")


_FIG18_CLAIMS = (
    Claim("geomean, DAB-NR over DAB", _gm_ratio("DAB-NR", "DAB"), "<=", 1.02),
    Claim("geomean, DAB-NR-OF over DAB-NR", _gm_ratio("DAB-NR-OF", "DAB-NR"),
          "<=", 1.0),
    Claim("geomean, DAB-NR-CIF over DAB-NR",
          _gm_ratio("DAB-NR-CIF", "DAB-NR"), "<=", 1.02),
    Claim("rows where DAB-NR-CIF is slower than 1.05x DAB",
          _violations(lambda r: r["DAB-NR-CIF"] > r["DAB"] * 1.05), "<=", 0),
)


# ----------------------------------------------------------------------
# Ablation: warp-level vs scheduler-level buffering (Section VI-A).
# ----------------------------------------------------------------------

def _ablation_matrices(quick: bool) -> List[dict]:
    return [_matrix("ablation-buffer-level", all_workloads(quick), [
        BASELINE,
        _dab("warp-level", buffer_level="warp", buffer_entries=32,
             scheduler="gto"),
        _dab("scheduler-level", buffer_entries=32, scheduler="gwat"),
    ])]


def ablation_buffer_level(grid: Grid) -> Table:
    """Paper VI-A: "Scheduler-level buffering performs similarly to
    warp-level buffering but could reduce area overhead up to 16x"."""
    t = _slowdowns(
        grid, "ablation-buffer-level",
        "Ablation: warp-level (32-entry, GTO) vs scheduler-level "
        "(32-entry, GWAT) buffering — slowdown vs baseline and per-SM area",
        "workload")
    # Area reported at paper scale (64 warps / 4 schedulers per SM,
    # Table I): that's where the 16x reduction comes from.
    paper_cfg = GPUConfig.titan_v()
    area = {a: grid.dab_configs[a].area_bytes_per_sm(paper_cfg)
            for a in ("warp-level", "scheduler-level")}
    t.add_row("area bytes/SM", *area.values())
    t.data["area_bytes_per_sm"] = area
    return t


_ABLATION_CLAIMS = (
    Claim("area per SM, warp-level over scheduler-level",
          lambda d: (d["area_bytes_per_sm"]["warp-level"]
                     / d["area_bytes_per_sm"]["scheduler-level"]), "==", 16),
    Claim("geomean, scheduler-level over warp-level",
          _gm_ratio("scheduler-level", "warp-level"), "<", 1.2),
)


# ----------------------------------------------------------------------
# Section V determinism validation.
# ----------------------------------------------------------------------

def determinism_matrix(name: str, workload: dict, dab: str = "DAB",
                       **knobs) -> dict:
    """The Section V matrix of ``workload``: baseline, DAB (the paper
    configuration, named ``dab``) and GPUDet, with the figure ``knobs``
    (preset, seeds, jitter, fault plans, invariants) of its three users:
    the ``determinism`` figure, ``repro audit`` and ``repro chaos``."""
    return _matrix(name, [workload],
                   [BASELINE, _dab(dab, **PAPER_DAB), GPUDET],
                   normalize="", **knobs)


def _determinism_matrices(quick: bool) -> List[dict]:
    # Heavy jitter + a large order-sensitive reduction: enough timing
    # perturbation that the baseline visibly scrambles its f32 result.
    # Row labels are the arch names.
    return [determinism_matrix(
        "determinism",
        {"name": "order_sensitive", "factory": "order_sensitive",
         "args": [2048]},
        dab="DAB-GWAT-64-AF-Coal", seeds=[1, 2, 3, 4, 5], jitter_dram=48,
        jitter_icnt=24)]


def determinism_validation(grid: Grid) -> Table:
    """Per arch of the one matrix: distinct output digests, whether
    there is one, and the summed faults injected and invariant checks."""
    (matrix,) = grid.archs
    t = Table(
        "Section V validation: bitwise output digests across jitter seeds",
        ["architecture", "distinct digests", "deterministic"],
    )
    data = {}
    for arch in grid.archs[matrix]:
        runs = grid.runs(matrix, arch)
        digests = {r.extra["output_digest"] for r in runs}
        det = len(digests) == 1
        data[arch] = {"distinct": len(digests), "deterministic": det, **{
            key: sum(int(r.extra.get(key, 0)) for r in runs)
            for key in ("faults_injected", "invariant_checks")}}
        t.add_row(arch, len(digests), det)
    t.data = data  # type: ignore[attr-defined]
    return t


BASELINE_DIVERGES = Claim(
    "distinct baseline digests", lambda d: d["baseline"]["distinct"],
    ">=", 2)
ONE_DIGEST_EACH = Claim(
    "deterministic architectures with more than one digest",
    lambda d: sum(1 for a, r in d.items()
                  if a != "baseline" and not r["deterministic"]),
    "<=", 0)


# ----------------------------------------------------------------------
# The registry and its runner.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Figure:
    """One paper table or figure: how its table is made and what the
    paper claims about it."""

    #: result grid -> the figure's table, raw data in ``table.data``;
    #: without matrices, a function of nothing (it simulates nothing)
    reduce: Callable[..., Table]
    #: the paper's claims about ``table.data``, names unique
    claims: Tuple[Claim, ...]
    #: quick -> the figure's ``repro.campaign/v1`` figure documents
    matrices: Optional[Callable[[bool], List[dict]]] = None


#: ``repro experiment`` name -> figure.
FIGURES: Dict[str, Figure] = {
    "fig01": Figure(fig01_rounding, _FIG01_CLAIMS),
    "fig02": Figure(fig02_locks, _FIG02_CLAIMS, _fig02_matrices),
    "fig03": Figure(fig03_gpudet_modes, _FIG03_CLAIMS, _fig03_matrices),
    "fig09": Figure(fig09_correlation, _FIG09_CLAIMS, _fig09_matrices),
    "fig10": Figure(fig10_overall, _FIG10_CLAIMS, _fig10_matrices),
    "fig11": Figure(fig11_schedulers, _FIG11_CLAIMS, _fig11_matrices),
    "fig12": Figure(fig12_capacity, _FIG12_CLAIMS, _fig12_matrices),
    "fig13": Figure(fig13_fusion, _FIG13_CLAIMS, _fig13_matrices),
    "fig14": Figure(fig14_gating, _FIG14_CLAIMS, _fig14_matrices),
    "fig15": Figure(fig15_overheads, _FIG15_CLAIMS, _fig15_matrices),
    "fig16": Figure(fig16_offset, _FIG16_CLAIMS, _fig16_matrices),
    "fig17": Figure(fig17_coalescing, _FIG17_CLAIMS, _fig17_matrices),
    "fig18": Figure(fig18_relaxed, _FIG18_CLAIMS, _fig18_matrices),
    "table1": Figure(table1_config, _TABLE1_CLAIMS),
    "table2": Figure(table2_graphs, _TABLE2_CLAIMS, _table2_matrices),
    "table3": Figure(table3_layers, _TABLE3_CLAIMS, _table3_matrices),
    "determinism": Figure(determinism_validation,
                          (BASELINE_DIVERGES, ONE_DIGEST_EACH),
                          _determinism_matrices),
    "ablation-buffer-level": Figure(ablation_buffer_level, _ABLATION_CLAIMS,
                                    _ablation_matrices),
}


def run_figure(name: str, quick: bool = False,
               db: Optional[RunDB] = None) -> Table:
    """Regenerate the table or figure ``name`` (a :data:`FIGURES` key).

    A simulated figure runs as the campaign ``name`` (``name_quick``
    for the quick sets) with the sweep engine's session settings
    (:func:`repro.harness.sweep.configured`) and appends one row per
    job to ``db`` (default: :func:`~repro.campaign.rundb.default_db_path`).
    """
    entry = FIGURES[name]
    if entry.matrices is None:
        return entry.reduce()
    campaign = parse_campaign({"campaign": f"{name}_quick" if quick else name,
                               "figures": entry.matrices(quick)})
    return entry.reduce(Grid(campaign, run_campaign(campaign, db=db)))


def judge_claims(name: str, table: Table,
                 quick: bool = False) -> List[Verdict]:
    """The verdict of every claim of figure ``name`` on ``table``, the
    figure's table at the quick or full scale; ``full_only`` claims are
    skipped at quick scale."""
    return [Verdict(name, claim, claim.measure(table.data))
            for claim in FIGURES[name].claims
            if not (quick and claim.full_only)]
