"""Campaign-file parsing: matrix expansion, defaults, validation, and the
result grid built from a run."""

import pytest

from repro.campaign.runner import CampaignSummary, FigureSummary
from repro.campaign.spec import (
    CAMPAIGN_SCHEMA,
    CampaignError,
    load_campaign,
    parse_campaign,
)
from repro.config import GPUConfig
from repro.core.dab import BufferLevel
from repro.faults import FaultPlan
from repro.harness.experiments import Grid
from repro.harness.runner import ArchSpec
from repro.harness.sweep import JobSpec, WorkloadRef
from repro.sim.results import SimResult


def _doc(**overrides):
    doc = {
        "schema": CAMPAIGN_SCHEMA,
        "campaign": "demo",
        "defaults": {"preset": "tiny", "seeds": [1]},
        "figures": [{
            "name": "figA",
            "title": "Demo figure",
            "normalize": "baseline",
            "workloads": [
                {"name": "w1", "factory": "atomic_sum", "args": [48]},
                {"factory": "order_sensitive", "args": [64]},
            ],
            "archs": [
                {"name": "baseline", "kind": "baseline"},
                {"name": "DAB", "kind": "dab",
                 "dab": {"scheduler": "gwat", "buffer_entries": 64}},
            ],
        }],
    }
    doc.update(overrides)
    return doc


class TestParsing:
    def test_matrix_order_is_workloads_x_archs_x_seeds(self):
        doc = _doc()
        doc["figures"][0]["seeds"] = [1, 2]
        camp = parse_campaign(doc)
        jobs = camp.figures[0].jobs
        assert [(j.workload, j.arch, j.seed) for j in jobs] == [
            ("w1", "baseline", 1), ("w1", "baseline", 2),
            ("w1", "DAB", 1), ("w1", "DAB", 2),
            ("order_sensitive:64", "baseline", 1),
            ("order_sensitive:64", "baseline", 2),
            ("order_sensitive:64", "DAB", 1),
            ("order_sensitive:64", "DAB", 2),
        ]
        assert camp.total_jobs == 8

    def test_specs_carry_figure_knobs(self):
        doc = _doc()
        doc["figures"][0].update({"preset": "small", "max_cycles": 9000,
                                  "jitter_dram": 48, "jitter_icnt": 24})
        spec = parse_campaign(doc).figures[0].jobs[0].spec
        assert spec.gpu == GPUConfig.small()
        assert spec.max_cycles == 9000
        assert spec.jitter_dram == 48 and spec.jitter_icnt == 24

    def test_gpu_overrides_applied(self):
        doc = _doc()
        doc["figures"][0]["gpu"] = {"num_clusters": 3}
        spec = parse_campaign(doc).figures[0].jobs[0].spec
        assert spec.gpu.num_clusters == 3

    def test_dab_buffer_level_enum(self):
        doc = _doc()
        doc["figures"][0]["archs"][1]["dab"] = {
            "buffer_level": "warp", "scheduler": "gto"}
        arch = parse_campaign(doc).figures[0].jobs[1].spec.arch
        assert arch.dab.buffer_level is BufferLevel.WARP

    def test_default_arch_configs(self):
        doc = _doc()
        doc["figures"][0]["archs"] = [
            {"name": "baseline", "kind": "baseline"},
            {"name": "DAB", "kind": "dab"},
            {"name": "GPUDet", "kind": "gpudet",
             "gpudet": {"quantum_instrs": 100}},
        ]
        camp = parse_campaign(doc)
        archs = {j.arch: j.spec.arch for j in camp.figures[0].jobs}
        assert archs["DAB"].kind == "dab"
        assert archs["GPUDet"].gpudet.quantum_instrs == 100

    def test_seeds_scalar_accepted(self):
        doc = _doc()
        doc["defaults"]["seeds"] = 7
        assert parse_campaign(doc).figures[0].jobs[0].seed == 7

    def test_fault_plans_expand_to_the_chaos_specs(self):
        # The specs ``repro chaos --seeds 3`` ran before it became a
        # campaign: one per (arch, plan), plans innermost, one jitter
        # seed, invariants armed.
        ref = WorkloadRef("order_sensitive", (256,))
        archs = (ArchSpec.baseline(), ArchSpec.make_dab(),
                 ArchSpec.make_gpudet())
        expected = [
            JobSpec(ref, arch, gpu=GPUConfig.tiny(), seed=1,
                    faults=plan.config, fault_seed=plan.seed,
                    invariants=True)
            for arch in archs
            for plan in (FaultPlan.sample(s) for s in (1, 2, 3))
        ]
        doc = _doc()
        doc["figures"][0].update(
            workloads=[{"factory": "order_sensitive", "args": [256]}],
            archs=[{"name": "baseline", "kind": "baseline"},
                   {"name": "DAB-GWAT-64-AF-Coal", "kind": "dab",
                    "dab": {"fusion": True, "coalescing": True}},
                   {"name": "GPUDet", "kind": "gpudet"}],
            normalize="", fault_plans=[1, 2, 3], invariants=True)
        jobs = parse_campaign(doc).figures[0].jobs
        assert [j.spec for j in jobs] == expected
        assert [(j.arch, j.seed) for j in jobs] == [
            (a.label, 1) for a in archs for _ in range(3)]

    def test_unfaulted_figures_arm_nothing(self):
        spec = parse_campaign(_doc()).figures[0].jobs[0].spec
        assert spec.faults is None and spec.fault_seed == 0
        assert spec.invariants is False


class TestValidation:
    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d.update(schema="repro.campaign/v99"), "schema"),
        (lambda d: d.update(figures=[]), "figures"),
        (lambda d: d["figures"][0].pop("name"), "name"),
        (lambda d: d["figures"][0].update(normalize="nope"),
         "names no arch"),
        (lambda d: d["figures"][0]["workloads"][0].update(
            factory="no_such"), "unknown workload factory"),
        (lambda d: d["figures"][0]["archs"][0].update(kind="cpu"),
         "baseline|dab|gpudet"),
        (lambda d: d["figures"][0].update(preset="mega"), "preset"),
        (lambda d: d["figures"][0].update(seeds=["x"]), "seeds"),
        (lambda d: d["figures"][0].update(max_cycles="lots"),
         "max_cycles"),
        (lambda d: d["figures"][0]["archs"][1]["dab"].update(
            buffer_level="block"), "buffer_level"),
        (lambda d: d["figures"][0]["archs"][1]["dab"].update(
            no_such_knob=1), "no_such_knob"),
    ])
    def test_bad_documents_rejected(self, mutate, match):
        doc = _doc()
        mutate(doc)
        with pytest.raises(CampaignError, match=match):
            parse_campaign(doc)

    @pytest.mark.parametrize("key, value, path", [
        ("seeds", [1, True], "figures[0].seeds[1]"),
        ("seeds", [-3], "figures[0].seeds[0]"),
        ("seeds", False, "figures[0].seeds"),
        ("fault_plans", [], "figures[0].fault_plans"),
        ("fault_plans", 3, "figures[0].fault_plans"),
        ("fault_plans", [1, -2], "figures[0].fault_plans[1]"),
        ("fault_plans", [1, True], "figures[0].fault_plans[1]"),
        ("fault_plans", ["1"], "figures[0].fault_plans[0]"),
        ("fault_plans", [1.0], "figures[0].fault_plans[0]"),
        ("invariants", 1, "figures[0].invariants"),
        ("invariants", "yes", "figures[0].invariants"),
        ("invariants", None, "figures[0].invariants"),
    ])
    def test_bad_seed_lists_and_flags_name_their_path(self, key, value,
                                                       path):
        doc = _doc()
        doc["figures"][0][key] = value
        with pytest.raises(CampaignError) as ei:
            parse_campaign(doc)
        assert str(ei.value).startswith(path)

    def test_duplicate_figure_names_rejected(self):
        doc = _doc()
        doc["figures"].append(dict(doc["figures"][0]))
        with pytest.raises(CampaignError, match="duplicate figure"):
            parse_campaign(doc)

    def test_duplicate_arch_names_rejected(self):
        doc = _doc()
        doc["figures"][0]["archs"].append(
            {"name": "baseline", "kind": "gpudet"})
        with pytest.raises(CampaignError, match="duplicate arch"):
            parse_campaign(doc)


class TestLoadYaml:
    def test_example_campaigns_parse(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2] / "examples" / "campaigns"
        files = sorted(root.glob("*.yaml"))
        assert files, "examples/campaigns/ should ship campaign files"
        for path in files:
            camp = load_campaign(path)
            assert camp.total_jobs > 0, path.name

    def test_invalid_yaml_raises_campaign_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("figures: [unterminated")
        with pytest.raises(CampaignError, match="invalid yaml"):
            load_campaign(path)

    def test_missing_file_raises_campaign_error(self, tmp_path):
        with pytest.raises(CampaignError, match="cannot read"):
            load_campaign(tmp_path / "nope.yaml")


class TestGrid:
    @staticmethod
    def _grid(doc, cycles):
        """The Grid of a run of ``doc`` in which job ``i`` took
        ``cycles(i, job)`` cycles."""
        camp = parse_campaign(doc)
        jobs = camp.figures[0].jobs
        results = [SimResult(label=j.arch, cycles=cycles(i, j),
                             instructions=1, atomics=0, kernels=1,
                             mem_digest="") for i, j in enumerate(jobs)]
        return Grid(camp, CampaignSummary("demo", None, "", [FigureSummary(
            "figA", len(jobs), 0, len(jobs), results=results)]))

    def test_jobs_differing_only_in_plan_are_both_kept(self):
        doc = _doc()
        doc["figures"][0].update(fault_plans=[4, 5])
        grid = self._grid(doc, lambda i, job: 100 + i)
        assert len(grid.results) == 8
        assert grid.results["figA", "w1", "DAB", 1, 4].cycles == 102
        assert grid.results["figA", "w1", "DAB", 1, 5].cycles == 103
        assert [r.cycles for r in grid.runs("figA", "DAB")] == [
            102, 103, 106, 107]

    def test_unfaulted_lookup_is_the_seed_1_result(self):
        doc = _doc()
        doc["figures"][0]["seeds"] = [2, 1]
        grid = self._grid(doc, lambda i, job: 10 * job.seed)
        assert grid["figA", "w1", "DAB"].cycles == 10
