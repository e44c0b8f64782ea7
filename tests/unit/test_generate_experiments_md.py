"""The EXPERIMENTS.md generator rewrites only its marked region."""

import importlib.util
import pathlib

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parents[2] / "scripts"
          / "generate_experiments_md.py")


@pytest.fixture(scope="module")
def gen():
    spec = importlib.util.spec_from_file_location("generate_md", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_splice_replaces_only_the_marked_region(gen):
    head, tail = "# title\n\n", "\n## Hand-written\n\nkept as is\n"
    text = head + gen.BEGIN + "old tables\n" + gen.END + tail
    assert (gen.splice(text, "new tables\n")
            == head + gen.BEGIN + "new tables\n" + gen.END + tail)
    with pytest.raises(ValueError, match="markers"):
        gen.splice(head + gen.BEGIN + "no end\n", "x\n")


def test_experiments_md_carries_the_markers(gen):
    text = gen.OUT.read_text(encoding="utf-8")
    assert text.count(gen.BEGIN) == 1 and text.count(gen.END) == 1
    assert text.index(gen.BEGIN) < text.index(gen.END)


def test_relaxation_step_counts_rows_both_ways(gen):
    data = {"a": {"X": 1.2, "Y": 1.1}, "b": {"X": 1.0, "Y": 1.0},
            "c": {"X": 1.0, "Y": 1.3}}
    assert (gen._relaxation_step(data, "X", "Y")
            == "Y beats X on 1 of 3 rows and is worse on c")
    assert (gen._relaxation_step(data, "X", "X")
            == "X equals X on every row")
