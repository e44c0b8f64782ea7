"""Declarative campaign files (``repro.campaign/v1`` yaml).

A campaign file names *figures*; each figure is a job matrix — the
cross product of its workloads, architectures, and seeds — that
compiles to the sweep engine's :class:`~repro.harness.sweep.JobSpec`
list.  Every paper figure of ``harness/experiments.py`` is written this
way, as Python dicts (the ARMI idiom: settings files drive entry
points, SNIPPETS.md #1/#3)::

    schema: repro.campaign/v1
    campaign: fig10_quick
    defaults:
      preset: small         # GPUConfig preset for every figure
      seeds: [1]
    figures:
      - name: fig10
        title: "Fig 10: DAB and GPUDet vs baseline"
        normalize: baseline # arch whose cycles define slowdown 1.0
        workloads:
          - {name: "BC 1k", factory: bc, args: ["1k", 32]}
          - {name: "PRK coA", factory: pagerank, args: ["coA", 2048],
             kwargs: {iterations: 1}}
        archs:
          - {name: baseline, kind: baseline}
          - {name: DAB, kind: dab,
             dab: {buffer_entries: 64, scheduler: gwat,
                   fusion: true, coalescing: true}}
          - {name: GPUDet, kind: gpudet}

Job order is deterministic: workloads x archs x seeds x fault plans,
in file order — the same order the database rows are appended in, at
any ``--jobs`` level.

Figure-level overrides: ``preset``, ``seeds``, ``gpu`` (a dict of
:meth:`GPUConfig.replace` overrides, e.g. ``{num_clusters: 3}`` for the
Fig 14 gating study), ``max_cycles``, ``jitter_dram`` / ``jitter_icnt``
(the determinism-validation knobs), and for ``repro chaos``
``fault_plans`` (seeds, each armed as ``FaultPlan.sample(seed)``) and
``invariants`` (a bool).  Workload factories are the sweep
registry names (:data:`repro.harness.sweep.WORKLOAD_FACTORIES`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.config import GPU_PRESETS, GPUConfig
from repro.core.dab import BufferLevel, DABConfig
from repro.faults import FaultPlan
from repro.gpudet.gpudet import GPUDetConfig
from repro.harness.runner import ArchSpec
from repro.harness.sweep import WORKLOAD_FACTORIES, JobSpec, WorkloadRef

#: Schema tag accepted at the top of a campaign file.
CAMPAIGN_SCHEMA = "repro.campaign/v1"


class CampaignError(ValueError):
    """A campaign file failed validation; the message names the path."""


@dataclass(frozen=True)
class CampaignJob:
    """One cell of a figure's matrix: display names + the exact spec."""

    workload: str
    arch: str
    seed: int
    spec: JobSpec


@dataclass
class Figure:
    name: str
    title: str
    normalize: str               # "" = no normalization column
    jobs: List[CampaignJob] = field(default_factory=list)


@dataclass
class Campaign:
    name: str
    description: str
    figures: List[Figure] = field(default_factory=list)

    @property
    def total_jobs(self) -> int:
        return sum(len(f.jobs) for f in self.figures)


# ----------------------------------------------------------------------
# Parsing.
# ----------------------------------------------------------------------

def _require_map(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise CampaignError(f"{where}: expected a mapping, got "
                            f"{type(doc).__name__}")
    return doc


def _require_list(doc, where: str) -> list:
    if not isinstance(doc, list) or not doc:
        raise CampaignError(f"{where}: expected a non-empty list")
    return doc


def _build_workload(doc, where: str) -> tuple:
    doc = _require_map(doc, where)
    factory = doc.get("factory")
    if not isinstance(factory, str):
        raise CampaignError(f"{where}: missing workload 'factory' name")
    if factory not in WORKLOAD_FACTORIES:
        raise CampaignError(
            f"{where}: unknown workload factory {factory!r} "
            f"(known: {', '.join(sorted(WORKLOAD_FACTORIES))})")
    args = doc.get("args", [])
    if not isinstance(args, list):
        raise CampaignError(f"{where}: workload 'args' must be a list")
    kwargs = doc.get("kwargs", {})
    if not isinstance(kwargs, dict):
        raise CampaignError(f"{where}: workload 'kwargs' must be a mapping")
    ref = WorkloadRef(factory, tuple(args), tuple(sorted(kwargs.items())))
    name = doc.get("name")
    if name is None:
        parts = [factory] + [str(a) for a in args]
        name = ":".join(parts)
    return str(name), ref


def _build_arch(doc, where: str) -> tuple:
    doc = _require_map(doc, where)
    kind = doc.get("kind")
    if kind not in ("baseline", "dab", "gpudet"):
        raise CampaignError(
            f"{where}: arch 'kind' must be baseline|dab|gpudet, "
            f"got {kind!r}")
    name = str(doc.get("name", kind))
    if kind == "baseline":
        return name, ArchSpec.baseline()
    if kind == "gpudet":
        gd = _require_map(doc.get("gpudet", {}), f"{where}.gpudet") \
            if "gpudet" in doc else {}
        try:
            return name, ArchSpec.make_gpudet(GPUDetConfig(**gd))
        except (TypeError, ValueError) as e:
            raise CampaignError(f"{where}.gpudet: {e}") from None
    dab = _require_map(doc.get("dab", {}), f"{where}.dab") \
        if "dab" in doc else {}
    dab = dict(dab)
    level = dab.pop("buffer_level", None)
    kwargs = {}
    if level is not None:
        try:
            kwargs["buffer_level"] = BufferLevel(level)
        except ValueError:
            raise CampaignError(
                f"{where}.dab: buffer_level must be 'warp' or "
                f"'scheduler', got {level!r}") from None
    try:
        cfg = DABConfig(**kwargs, **dab)
    except (TypeError, ValueError) as e:
        raise CampaignError(f"{where}.dab: {e}") from None
    return name, ArchSpec.make_dab(cfg, label=name)


def _build_gpu(figure_doc: dict, defaults: dict, where: str) -> GPUConfig:
    preset = figure_doc.get("preset", defaults.get("preset", "small"))
    if preset not in GPU_PRESETS:
        raise CampaignError(
            f"{where}: unknown preset {preset!r} "
            f"(known: {', '.join(GPU_PRESETS)})")
    gpu = GPU_PRESETS[preset]()
    overrides = figure_doc.get("gpu", defaults.get("gpu"))
    if overrides is not None:
        overrides = _require_map(overrides, f"{where}.gpu")
        try:
            gpu = gpu.replace(**overrides)
        except (TypeError, ValueError) as e:
            raise CampaignError(f"{where}.gpu: {e}") from None
    return gpu


def _seed_list(seeds, where: str) -> List[int]:
    """``seeds``, checked: a non-empty list of non-negative ints."""
    if not isinstance(seeds, list) or not seeds:
        raise CampaignError(f"{where}: expected a non-empty list of "
                            f"non-negative ints")
    for j, seed in enumerate(seeds):
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise CampaignError(f"{where}[{j}]: expected a non-negative "
                                f"int, got {seed!r}")
    return list(seeds)


def _seeds(figure_doc: dict, defaults: dict, where: str) -> List[int]:
    seeds = figure_doc.get("seeds", defaults.get("seeds", [1]))
    if isinstance(seeds, int) and not isinstance(seeds, bool):
        seeds = [seeds]
    return _seed_list(seeds, f"{where}.seeds")


def _int_knob(figure_doc: dict, defaults: dict, key: str, fallback,
              where: str):
    value = figure_doc.get(key, defaults.get(key, fallback))
    if value is not None and not isinstance(value, int):
        raise CampaignError(f"{where}: {key!r} must be an integer")
    return value


def parse_campaign(doc: dict, name_hint: str = "campaign") -> Campaign:
    """Validate a parsed yaml document into a :class:`Campaign`."""
    doc = _require_map(doc, "campaign file")
    schema = doc.get("schema", CAMPAIGN_SCHEMA)
    if schema != CAMPAIGN_SCHEMA:
        raise CampaignError(
            f"campaign file: schema {schema!r} is not supported "
            f"(expected {CAMPAIGN_SCHEMA!r})")
    name = str(doc.get("campaign", name_hint))
    defaults = _require_map(doc.get("defaults", {}), "defaults")
    figures_doc = _require_list(doc.get("figures"), "figures")

    figures: List[Figure] = []
    seen = set()
    for i, fig_doc in enumerate(figures_doc):
        where = f"figures[{i}]"
        fig_doc = _require_map(fig_doc, where)
        fig_name = fig_doc.get("name")
        if not isinstance(fig_name, str) or not fig_name:
            raise CampaignError(f"{where}: missing figure 'name'")
        if fig_name in seen:
            raise CampaignError(f"{where}: duplicate figure {fig_name!r}")
        seen.add(fig_name)

        workloads = [
            _build_workload(w, f"{where}.workloads[{j}]")
            for j, w in enumerate(
                _require_list(fig_doc.get("workloads"),
                              f"{where}.workloads"))
        ]
        archs = [
            _build_arch(a, f"{where}.archs[{j}]")
            for j, a in enumerate(
                _require_list(fig_doc.get("archs"), f"{where}.archs"))
        ]
        arch_names = [n for n, _ in archs]
        if len(set(arch_names)) != len(arch_names):
            raise CampaignError(f"{where}: duplicate arch names "
                                f"{arch_names}")
        normalize = str(fig_doc.get("normalize", ""))
        if normalize and normalize not in arch_names:
            raise CampaignError(
                f"{where}: normalize={normalize!r} names no arch in "
                f"{arch_names}")

        gpu = _build_gpu(fig_doc, defaults, where)
        seeds = _seeds(fig_doc, defaults, where)
        max_cycles = _int_knob(fig_doc, defaults, "max_cycles", None, where)
        jitter_dram = _int_knob(fig_doc, defaults, "jitter_dram", 16, where)
        jitter_icnt = _int_knob(fig_doc, defaults, "jitter_icnt", 6, where)
        plans: List[Optional[FaultPlan]] = [None]  # no faults
        if "fault_plans" in fig_doc:
            plans = [FaultPlan.sample(seed) for seed in _seed_list(
                fig_doc["fault_plans"], f"{where}.fault_plans")]
        invariants = fig_doc.get("invariants", False)
        if not isinstance(invariants, bool):
            raise CampaignError(f"{where}.invariants: expected a bool, "
                                f"got {invariants!r}")

        jobs = [
            CampaignJob(
                workload=wname, arch=aname, seed=seed,
                spec=JobSpec(ref, arch, gpu=gpu, seed=seed,
                             jitter_dram=jitter_dram,
                             jitter_icnt=jitter_icnt,
                             max_cycles=max_cycles,
                             faults=plan.config if plan else None,
                             fault_seed=plan.seed if plan else 0,
                             invariants=invariants),
            )
            for wname, ref in workloads
            for aname, arch in archs
            for seed in seeds
            for plan in plans
        ]
        figures.append(Figure(
            name=fig_name,
            title=str(fig_doc.get("title", fig_name)),
            normalize=normalize,
            jobs=jobs,
        ))
    return Campaign(name=name, description=str(doc.get("description", "")),
                    figures=figures)


def load_campaign(path) -> Campaign:
    """Read and validate a campaign yaml file."""
    try:
        import yaml
    except ImportError:  # pragma: no cover - yaml ships with the toolchain
        raise CampaignError(
            "campaign files require PyYAML, which is not installed; "
            "install 'pyyaml' or drive the sweep engine directly")
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise CampaignError(f"cannot read campaign file {path}: {e}")
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise CampaignError(f"{path}: invalid yaml: {e}")
    return parse_campaign(doc, name_hint=path.stem)
