"""Benchmark harness: run (workload, architecture) pairs, regenerate
every table and figure of the paper (see DESIGN.md §4 for the index)."""

from repro.harness.runner import ArchSpec, run_workload
from repro.harness.report import Table, geomean
from repro.harness.sweep import (
    JobSpec,
    WorkloadRef,
    register_workload,
    run_jobs,
)

__all__ = [
    "ArchSpec", "run_workload", "Table", "geomean",
    "JobSpec", "WorkloadRef", "run_jobs",
    "register_workload",
]
