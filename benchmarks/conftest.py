"""Benchmark harness glue.

``bench_figures.py`` regenerates every paper table/figure.  Simulation
runs are deterministic and expensive, so each measurement executes
exactly once (``rounds=1``) inside pytest-benchmark, and each
experiment's table is printed and archived under ``benchmarks/results/``.
"""

import json
import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def record_table(name: str, table) -> None:
    """Print the regenerated table and archive it (.txt + .json).

    The JSON twin carries the structured rows so figures can be
    re-plotted without re-simulating or scraping the text rendering.
    """
    text = table.render() if hasattr(table, "render") else str(table)
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    doc = {"name": name}
    if hasattr(table, "columns") and hasattr(table, "rows"):
        doc.update(title=table.title, columns=list(table.columns),
                   rows=[list(r) for r in table.rows])
    else:
        doc["text"] = text
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    )


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def pytest_addoption(parser):
    group = parser.getgroup("sweep", "sweep-engine execution")
    group.addoption("--jobs", type=int, default=None, metavar="N",
                    help="worker processes for experiment sweeps "
                         "(default: all CPUs; 1 = in-process)")
    group.addoption("--no-cache", action="store_true",
                    help="bypass the content-addressed result cache")
    group.addoption("--cache-dir", default=None, metavar="DIR",
                    help="result-cache directory "
                         "(default: benchmarks/results/cache)")


@pytest.fixture(scope="session")
def sweep_args(request):
    """The pytest command-line knobs as ``run_figure`` keywords."""
    jobs = request.config.getoption("--jobs")
    return {
        "jobs": jobs if jobs is not None else (os.cpu_count() or 1),
        "cache": not request.config.getoption("--no-cache"),
        "cache_dir": request.config.getoption("--cache-dir"),
    }


@pytest.fixture(scope="session", autouse=True)
def _results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
