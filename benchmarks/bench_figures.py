"""Every paper table and figure at full scale, with its claims.

One test per :data:`repro.harness.experiments.FIGURES` entry: the figure
runs once under pytest-benchmark, its table is archived as
``benchmarks/results/<reducer name>.{txt,json}`` and every claim the
registry states for it must hold on ``table.data``.  Run with::

    python -m pytest benchmarks/bench_figures.py -q --jobs 2
"""

import pytest

from benchmarks.conftest import record_table, run_once
from repro.harness.experiments import FIGURES, judge_claims, run_figure


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure(benchmark, name):
    table = run_once(benchmark, run_figure, name)
    record_table(FIGURES[name].reduce.__name__, table)
    failed = [str(v) for v in judge_claims(name, table) if not v.holds]
    assert not failed, "\n".join(failed)
