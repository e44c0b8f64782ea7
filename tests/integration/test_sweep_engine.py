"""Executor semantics: ordering, caching, timeouts, worker death, obs."""

import os
import threading
import time
from concurrent.futures.process import _ExecutorManagerThread

import pytest

from repro.campaign import RunDB
from repro.config import GPUConfig
from repro.harness.experiments import run_figure
from repro.harness.runner import ArchSpec
from repro.harness import sweep
from repro.harness.sweep import (
    JobSpec,
    SweepError,
    SweepTimeoutError,
    WorkloadRef,
    register_workload,
    run_jobs,
)
from repro.obs import ObsConfig
from repro.workloads.microbench import build_atomic_sum

TINY = GPUConfig.tiny()

# Hostile factories for the failure paths.  Module-level so fork-started
# workers inherit them; the pid guard makes them misbehave only inside
# a pool worker, never in the parent.
_PARENT = os.getpid()


def _bomb_factory(n=16):
    if os.getpid() != _PARENT:
        os._exit(13)  # simulates a worker crash (OOM-kill, segfault)
    return build_atomic_sum(n)


def _sleep_factory(n=16):
    if os.getpid() != _PARENT:
        time.sleep(60)
    return build_atomic_sum(n)


register_workload("_test_bomb", _bomb_factory)
register_workload("_test_sleep", _sleep_factory)


def _specs(sizes=(16, 24, 32, 48), factory="atomic_sum"):
    return [
        JobSpec(WorkloadRef(factory, (n,)), arch, gpu=TINY)
        for n in sizes
        for arch in (ArchSpec.baseline(), ArchSpec.make_dab())
    ]


def _digests(results):
    return [(r.label, r.cycles, r.extra["output_digest"]) for r in results]


class TestOrdering:
    def test_parallel_equals_serial(self):
        specs = _specs()
        serial = run_jobs(specs, jobs=1, cache=False)
        parallel = run_jobs(specs, jobs=3, cache=False)
        assert _digests(parallel) == _digests(serial)

    def test_experiment_table_byte_identical(self, tmp_path):
        with RunDB(tmp_path / "runs.db") as db:
            with sweep.configured(jobs=1, cache=False):
                serial = run_figure("fig02", quick=True, db=db).render()
            with sweep.configured(jobs=2, cache=False):
                parallel = run_figure("fig02", quick=True, db=db).render()
        assert parallel == serial

    def test_determinism_validation_through_engine(self, tmp_path):
        with RunDB(tmp_path / "runs.db") as db, \
                sweep.configured(jobs=2, cache=False):
            t = run_figure("determinism", quick=True, db=db)
        assert t.data["baseline"]["deterministic"] is False
        assert t.data["DAB-GWAT-64-AF-Coal"]["deterministic"] is True
        assert t.data["GPUDet"]["deterministic"] is True

    def test_parallel_sweep_leaves_no_manager_thread(self):
        # A live manager thread at interpreter exit can print an OSError
        # traceback from the executor's exit hook.
        def managers():
            return {t for t in threading.enumerate()
                    if isinstance(t, _ExecutorManagerThread) and t.is_alive()}

        before = managers()
        run_jobs(_specs(sizes=(16, 24)), jobs=2, cache=False)
        assert managers() <= before


class TestCaching:
    def test_second_run_hits(self, tmp_path):
        specs = _specs(sizes=(16, 24))
        cold = run_jobs(specs, jobs=1, cache=True, cache_dir=tmp_path)
        warm = run_jobs(specs, jobs=1, cache=True, cache_dir=tmp_path)
        assert not any(r.extra.get("cache_hit") for r in cold)
        assert all(r.extra["cache_hit"] for r in warm)
        assert _digests(warm) == _digests(cold)

    def test_partial_hits_fill_misses(self, tmp_path):
        first = _specs(sizes=(16,))
        run_jobs(first, jobs=1, cache=True, cache_dir=tmp_path)
        both = _specs(sizes=(16, 24))
        mixed = run_jobs(both, jobs=1, cache=True, cache_dir=tmp_path)
        hits = [bool(r.extra.get("cache_hit")) for r in mixed]
        assert hits == [True, True, False, False]

    def test_no_cache_never_writes(self, tmp_path):
        run_jobs(_specs(sizes=(16,)), jobs=1, cache=False,
                 cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestFailurePaths:
    def test_worker_death_falls_back_in_process(self):
        specs = _specs(sizes=(16, 24), factory="_test_bomb")
        results = run_jobs(specs, jobs=2, cache=False)
        # in the parent the pid guard is inert, so the fallback works
        assert _digests(results) == _digests(
            run_jobs(_specs(sizes=(16, 24)), jobs=1, cache=False))

    def test_timeout_raises_after_retry(self):
        specs = _specs(sizes=(16, 24), factory="_test_sleep")
        t0 = time.monotonic()
        with pytest.raises(SweepTimeoutError):
            run_jobs(specs, jobs=2, cache=False, timeout=1.0)
        # two attempts at ~1s each, not 60s waiting on sleepers
        assert time.monotonic() - t0 < 30

    def test_app_exception_propagates(self):
        bad = [JobSpec(WorkloadRef("conv", ("no_such_layer",)),
                       ArchSpec.baseline(), gpu=TINY)]
        with pytest.raises(Exception):
            run_jobs(bad, jobs=1, cache=False)


class TestObservability:
    def test_obs_with_jobs_gt_1_rejected(self):
        obs = ObsConfig(trace=True)
        with pytest.raises(SweepError):
            run_jobs(_specs(sizes=(16,)), jobs=2, cache=False, obs=obs)

    def test_obs_serial_collects_traces(self, tmp_path):
        obs = ObsConfig(trace=True)
        results = run_jobs(_specs(sizes=(16,)), jobs=1, cache=True,
                           cache_dir=tmp_path, obs=obs)
        assert all(r.obs is not None and len(r.obs.tracer) > 0
                   for r in results)
        # traced runs bypass the cache entirely
        assert list(tmp_path.iterdir()) == []
