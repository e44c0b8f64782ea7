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
