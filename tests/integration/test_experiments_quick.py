"""Every figure's claims at quick scale.

``benchmarks/bench_figures.py`` judges the same claims at full scale;
here each experiment runs on its quick workload set, and every claim
the registry does not mark full-scale-only must hold, without the
claims touching the data they measure.
"""

import copy

import pytest

from repro.harness.experiments import FIGURES, judge_claims


@pytest.mark.parametrize("name", list(FIGURES))
def test_quick_claims(name, quick_figure):
    table = quick_figure(name)
    before = copy.deepcopy(table.data)
    verdicts = judge_claims(name, table, quick=True)
    assert table.data == before, f"a claim of {name} mutated table.data"
    assert verdicts
    failed = [str(v) for v in verdicts if not v.holds]
    assert not failed, "\n".join(failed)
