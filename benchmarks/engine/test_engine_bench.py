"""Self-test of the engine benchmark: one round per workload.

    python -m pytest benchmarks/engine -q

Runs every workload once through the library entry point
(``engine_bench.measure``), traced, and checks the benchmark's own
contract: every metric named in BENCHMARK.json is emitted with its unit,
tracing changes no simulated value, the tracer puts every wrapped
attribute back, and the output check catches a wrong expectation.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import engine_bench as eb  # noqa: E402
import layer_trace  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((eb.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def expected():
    return eb.load_expected()


@pytest.fixture(scope="module", params=eb.WORKLOADS)
def measured(request, expected, tmp_path_factory):
    targets = layer_trace.engine_targets() + layer_trace.campaign_targets()
    originals = [(owner, attr, layer_trace.lookup(owner, attr))
                 for owner, attr, _layer, _y in targets]
    doc = eb.measure(request.param, seed=1, seconds=0, trace=True,
                     expected=expected,
                     out_dir=tmp_path_factory.mktemp("out"), trace_rounds=1)
    return request.param, doc, originals


def test_every_run_correct(measured):
    _name, doc, _ = measured
    assert doc["attempted"] > 0
    assert doc["failed"] == 0, doc["errors"]


def test_tracing_changes_no_simulated_value(measured):
    _name, doc, _ = measured
    assert doc["trace_outcomes"] == doc["round_outcomes"]


def test_wrapped_attributes_restored(measured):
    _name, _doc, originals = measured
    for owner, attr, original in originals:
        assert layer_trace.lookup(owner, attr) is original, (owner, attr)


def test_every_benchmark_metric_emitted_with_unit(measured):
    name, doc, _ = measured
    res = run.assemble(json.loads(json.dumps(doc)),
                       run.setup_seconds(name, probes=1))
    # The bare command is untraced; --trace and --trace 1 add the pass.
    for argv, section in (([], "end_to_end"), (["--trace", "0"], "end_to_end"),
                          (["--trace"], "per_layer"),
                          (["--trace", "1"], "per_layer")):
        line = run.result_line({name: res}, run.parse_args(argv).trace)
        want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        assert got == want
        assert line["correct"] and line["failed"] == 0
    for m in BENCHMARK["end_to_end"]:
        assert res["metrics"][m["name"]]["value"] > 0, m["name"]


def test_unattributed_time_is_small(measured):
    _name, doc, _ = measured
    layers = doc["trace"]
    assert layers["bench.unattributed_ns_per_instr"] <= \
        0.10 * layers["bench.traced_ns_per_instr"]


def test_corrupted_expectation_fails_the_run(expected):
    key = eb.cell_key("titan_v", "baseline", "cnv2_1")
    bad = copy.deepcopy(expected)
    bad[key]["mem_digest"] = "0" * 64
    doc = eb.measure("baseline_conv", seed=1, seconds=0, trace=False,
                     expected=bad)
    assert doc["failed"] > 0
    res = run.assemble(doc, ([0.1], [0.1]))
    assert res["metrics"]["failed_frac"]["value"] > 0
    assert not run.result_line({"baseline_conv": res}, False)["correct"]


def test_benchmark_json_matches_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == eb.WORKLOADS
    assert [m["name"] for m in BENCHMARK["per_layer"]] == \
        run.per_layer_names()
    for section in ("end_to_end", "per_layer"):
        for m in BENCHMARK[section]:
            assert run.unit_of(m["name"]) == m["unit"], m["name"]
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in BENCHMARK["end_to_end"])


def test_readme_names_every_metric_and_workload():
    readme = (eb.HERE / "README.md").read_text()
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for s in ("end_to_end", "per_layer")
              for m in BENCHMARK[s]]
    missing = [n for n in names if f"`{n}`" not in readme]
    assert not missing
