"""Smoke tests of ``scripts/bench_ab.py``: the opcode counter on one
``tiny`` timing-matrix cell in this process, the paired-run verdicts on
made-up samples, and the exports of ``HEAD`` and of the working tree."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

from tests.integration import timing_matrix as tm

ROOT = Path(__file__).resolve().parents[2]
CELL = "tiny/fence/baseline"


def _script(name: str):
    """``scripts/<name>.py`` as a module (scripts is not a package)."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_ab = _script("bench_ab")


def _in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, check=False)
    return probe.returncode == 0


def test_opcode_counter_on_a_tiny_cell():
    tm.run_cell(CELL, invariants=False)  # warm-up: decode caches
    res, counts = bench_ab.count_opcodes(
        lambda: tm.run_cell(CELL, invariants=False))
    table = bench_ab.opcode_table(counts, res.instructions, top=5)
    assert table["instructions"] == res.instructions > 0
    assert table["opcodes"] == sum(counts.values()) > 0
    assert table["per_instr"] > 0
    assert {"repro.sim.sm", "repro.arch.warp", "repro.sim.gpu"} <= set(
        table["by_module"])
    assert len(table["top_functions"]) == 5
    # A deterministic run executes the same opcodes again.
    _res, again = bench_ab.count_opcodes(
        lambda: tm.run_cell(CELL, invariants=False))
    assert sum(again.values()) == table["opcodes"]


def test_module_names():
    assert bench_ab.module_of("/x/src/repro/sim/sm.py") == "repro.sim.sm"
    assert bench_ab.module_of(
        "/v/lib/site-packages/numpy/_core/numeric.py") == "numpy._core.numeric"
    assert bench_ab.module_of("/usr/lib/python3.11/bisect.py") == "bisect"


def test_paired_verdicts():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0]
    change = [120.0, 118.0, 121.0, 97.0, 119.0]
    c = bench_ab.compare(parent, change, "higher", 0.15)
    assert c["wins"] == 4 and c["pairs"] == 5
    assert c["parent"]["median"] == 100.0 and c["change"]["median"] == 119.0
    assert c["gap_exceeds_spread"] and not c["worse_than_bound"]
    # Lower is better: a 30% rise is worse than a 25% bound.
    c = bench_ab.compare([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "lower", 0.25)
    assert c["wins"] == 0 and c["worse_than_bound"]
    assert not c["gap_exceeds_spread"]


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout")
def test_export_head(tmp_path):
    _script("engine_diff").export_ref("HEAD", tmp_path)
    tree = tmp_path / "tree"
    assert (tree / "benchmarks" / "engine" / "run.py").is_file()
    assert (tree / "BENCHMARK.json").is_file()


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout")
def test_export_worktree(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True,
                              check=True).stdout.strip()

    staged = git("write-tree")
    out = tmp_path / "ab.json"
    assert bench_ab.main(["HEAD", "--pairs", "0", "--out", str(out)]) == 0
    assert git("write-tree") == staged  # the real index is untouched
    trees = json.loads(out.read_text())["trees"]
    assert trees == {"parent": git("rev-parse", "HEAD^{tree}"),
                     "change": bench_ab.worktree_id()}
    _script("engine_diff").export_ref(trees["change"], tmp_path)
    tree = tmp_path / "tree"
    # The change side holds this checkout's files as they are on disk.
    for rel in ("scripts/bench_ab.py", "src/repro/cli.py"):
        assert (tree / rel).read_bytes() == (ROOT / rel).read_bytes()
    assert not (tree / "benchmarks" / "results" / "runs.db").exists()
