"""Every figure's quick table, byte for byte.

``tests/golden/figures_quick.json`` maps each :data:`FIGURES` name to
the table ``repro experiment <name> --quick`` prints.  Intentional
changes are re-pinned with::

    python -m pytest tests/integration/test_figures_golden.py --update-golden
"""

import json
import pathlib

import pytest

from repro.campaign import load_campaign, parse_campaign
from repro.harness.experiments import FIGURES

ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN_PATH = ROOT / "tests" / "golden" / "figures_quick.json"


def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(FIGURES))
def test_quick_table_golden(name, quick_figure, request):
    rendered = quick_figure(name).render()
    if request.config.getoption("--update-golden"):
        tables = {k: v for k, v in load_golden().items() if k in FIGURES}
        tables[name] = rendered
        GOLDEN_PATH.write_text(json.dumps(tables, indent=2, sort_keys=True)
                               + "\n", encoding="utf-8")
        return
    golden = load_golden().get(name)
    assert golden is not None, (
        f"no quick-table golden for {name!r}; create it with "
        f"`python -m pytest {__file__} --update-golden`")
    assert rendered == golden, (
        f"quick table of {name!r} drifted from {GOLDEN_PATH}:\n"
        f"--- golden\n{golden}\n--- now\n{rendered}\n"
        "(if intentional, re-pin with --update-golden)")


def test_fig10_quick_example_is_the_fig10_quick_matrix():
    """The example campaign compiles to the figure's jobs, in order, so
    both record the same specs and share cache entries."""
    pytest.importorskip("yaml")
    example = load_campaign(ROOT / "examples" / "campaigns" / "fig10_quick.yaml")
    matrix = parse_campaign({"figures": FIGURES["fig10"].matrices(True)})
    assert ([j.spec.spec_hash() for j in example.figures[0].jobs]
            == [j.spec.spec_hash() for j in matrix.figures[0].jobs])
