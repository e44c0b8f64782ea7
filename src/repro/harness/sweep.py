"""Parallel sweep engine with content-addressed result caching.

Every table/figure is a *sweep*: a list of independent (workload,
architecture, machine, seed) simulations whose results are assembled
into a :class:`~repro.harness.report.Table`.  This module turns that
list into first-class data so sweeps can be parallelized and cached
without changing a single table byte:

* :class:`JobSpec` — one picklable simulation description.  Workloads
  are referenced by *registry name + parameters*
  (:class:`WorkloadRef`), never by closure, so a spec can cross a
  process boundary and be hashed canonically.
* :func:`run_jobs` — executes a list of specs and returns results in
  submission order.  Every setting is an explicit argument: ``jobs=1``
  (the default) runs in-process; ``jobs>1`` fans out over a
  ``ProcessPoolExecutor``.  Because every job is an independent
  deterministic simulation and results are reassembled by index, a
  parallel sweep is byte-identical to a serial one (asserted in CI).
* :class:`ResultCache` — a content-addressed disk cache under
  ``benchmarks/results/cache/``.  The key is the sha256 of the
  canonical JobSpec document (everything but the architecture's
  display label) plus a fingerprint of the simulator sources and
  :data:`SWEEP_CACHE_VERSION`, so *any* code change or schema bump
  invalidates every entry, while one simulation requested under two
  arch names is one entry.  Cached results round-trip through
  ``SimResult.metrics_dict()``, carry ``extra['cache_hit'] = True``
  and take the requesting spec's label.

Failure semantics (documented contract, exercised by the integration
tests): an exception raised *by the job itself* propagates to the
caller, and a job exceeding ``timeout`` seconds is retried and then
raises :class:`SweepTimeoutError` — a hang is never retried in-process,
where it could not be interrupted.  A worker process dying
(``BrokenProcessPool``) costs the shared pool: its unfinished jobs are
retried in a fresh one (:data:`POOL_ATTEMPTS` pools, with exponential
backoff between them), and the jobs that survive every attempt are
*isolated* — each re-run alone in fresh single-worker pools
(:func:`_isolate`), never in this process, where a crashing job would
kill the coordinator.  A job that completes in isolation was the victim
of someone else's crash; one that kills
:data:`~repro.resilience.ISOLATION_ATTEMPTS` pools of its own is
deterministic poison and raises :class:`SweepWorkerError`.  Both error
types carry ``.jobs``: the canonical spec hash and workload name of
every failing job, so a failed campaign is attributable and re-runnable;
and ``.results``: every job that did finish, in submission order.

Passing ``resilience`` (a
:class:`~repro.resilience.ResilienceContext`) changes what poison
costs: the job is *quarantined* with structured blame instead of
raised — its result slot comes back ``None`` and the sweep completes in
explicitly-recorded degraded mode — and a job's own exception in a pool
is a poison suspect, isolated like a dead worker instead of raised.
Every shared pool carries a heartbeat watchdog
(:mod:`repro.resilience.watchdog`) that samples worker kernel states,
so a SIGSTOP'd worker is killed and replaced within a few 0.25 s
ticks instead of burning the per-job timeout.

Cache entries are sealed with sha256 content checksums
(:mod:`repro.resilience.integrity`) and verified on every read; a
corrupt entry is quarantined to ``cache.quarantine/`` — never deleted —
and transparently recomputed.  Cache writes that fail (ENOSPC, a dying
disk) are tolerated loudly: the sweep completes, the failure is
counted and warned about once.

The cache is also the resume store.  Each entry is fsynced before it
is renamed into place as the job completes, so a campaign killed
mid-sweep and re-run against the same cache directory replays every
finished job (``cache_hit``) and simulates only the rest; the resumed
result table is byte-identical to an uninterrupted run.

Observability hubs (tracers/metrics registries) are not picklable and
must observe the run *in this process*: passing ``obs`` with ``jobs>1``
raises :class:`SweepError`, and traced runs always bypass the cache
(a cache hit would observe nothing).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import sys
import time
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import GPUConfig
from repro.faults import FaultConfig, FaultPlan
from repro.harness.runner import ArchSpec, run_workload
from repro.obs import ObsConfig
from repro.resilience import integrity
from repro.resilience.quarantine import ISOLATION_ATTEMPTS, ResilienceContext
from repro.resilience.watchdog import HeartbeatWatchdog
from repro.sim.results import SimResult
from repro.workloads import Workload
from repro.workloads.bc import build_bc
from repro.workloads.convolution import build_conv
from repro.workloads.hostile import build_chaos_poison, build_chaos_stop_once
from repro.workloads.locks import build_lock_sum, build_lock_sum_racy
from repro.workloads.microbench import (
    build_atomic_sum,
    build_histogram,
    build_mc_barrier,
    build_mc_racy,
    build_multi_target,
    build_order_sensitive,
)
from repro.workloads.pagerank import build_pagerank
from repro.workloads.sssp import build_sssp

#: Bump on any change to the cache document layout or to simulation
#: semantics that the code fingerprint cannot see (e.g. a data file).
#: Every bump invalidates the entire cache.
SWEEP_CACHE_VERSION = 4  # v4: sealed entries (sha256 content checksums)

#: Schema tag of on-disk cache documents.  v2: every document carries
#: an ``integrity`` checksum verified on read (corrupt -> quarantine).
CACHE_SCHEMA = "repro.sweep-cache/v2"

#: Shared-pool attempts before the jobs a dying pool took with it are
#: isolated (:func:`_isolate`).
POOL_ATTEMPTS = 2

#: Base of the exponential backoff between pool attempts (seconds):
#: ``POOL_BACKOFF_S * 2**(attempt-1)`` before attempt 2, 3, ...
POOL_BACKOFF_S = 0.5


class SweepError(RuntimeError):
    """Sweep engine misuse or unrecoverable executor failure."""


class SweepJobError(SweepError):
    """A sweep failure attributable to specific jobs.

    ``jobs`` is a list of ``{"index", "workload", "spec_hash"}`` dicts —
    the canonical spec hash and workload name of every failing job, so a
    failed chaos campaign can be diagnosed and the exact jobs re-run.
    ``results`` is the sweep's results in submission order, ``None``
    where a job did not finish (set by :func:`run_jobs`), so a caller
    can keep the finished ones.
    """

    def __init__(self, message: str, jobs=()):
        super().__init__(message)
        self.jobs = list(jobs)
        self.results: List[Optional[SimResult]] = []


class SweepTimeoutError(SweepJobError):
    """A job exceeded its per-job timeout (after retries)."""


class SweepWorkerError(SweepJobError):
    """Jobs killed every worker they ran in, shared and isolated."""


class UnknownWorkloadError(SweepError):
    """A WorkloadRef names a factory missing from the registry."""


# ----------------------------------------------------------------------
# Workload registry: name -> factory.  String keys keep JobSpecs
# picklable and hashable; on Linux the pool forks, so entries
# registered at import time (e.g. by tests) are inherited by workers.
# ----------------------------------------------------------------------

WORKLOAD_FACTORIES: Dict[str, Callable[..., Workload]] = {
    "bc": build_bc,
    "pagerank": build_pagerank,
    "sssp": build_sssp,
    "conv": build_conv,
    "lock_sum": build_lock_sum,
    "lock_sum_racy": build_lock_sum_racy,
    "atomic_sum": build_atomic_sum,
    "order_sensitive": build_order_sensitive,
    "histogram": build_histogram,
    "multi_target": build_multi_target,
    # Model-checking micro-kernels (repro.check.mc presets).
    "mc_barrier": build_mc_barrier,
    "mc_racy": build_mc_racy,
    # Hostile negative controls (resilience layer) — harmless unless
    # invoked; see repro.workloads.hostile.
    "chaos_host_poison": build_chaos_poison,
    "chaos_host_stop_once": build_chaos_stop_once,
}


def register_workload(name: str, factory: Callable[..., Workload]) -> None:
    """Add a factory to the registry (idempotent for the same object)."""
    existing = WORKLOAD_FACTORIES.get(name)
    if existing is not None and existing is not factory:
        raise ValueError(f"workload factory {name!r} already registered")
    WORKLOAD_FACTORIES[name] = factory


def _resolve_factory(name: str) -> Callable[..., Workload]:
    try:
        return WORKLOAD_FACTORIES[name]
    except KeyError:
        raise UnknownWorkloadError(
            f"unknown workload factory {name!r}; "
            f"register it with repro.harness.sweep.register_workload"
        ) from None


@dataclass(frozen=True)
class WorkloadRef:
    """Picklable reference to a workload factory call.

    ``kwargs`` may be passed as a dict; it is normalized to a sorted
    tuple of pairs so refs hash/compare by value.  A ref is itself a
    zero-argument factory (``ref()`` builds a fresh Workload), so it
    drops into every API that used to take a closure.
    """

    factory: str
    args: Tuple = ()
    kwargs: Tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        kw = self.kwargs
        if isinstance(kw, dict):
            kw = tuple(sorted(kw.items()))
        object.__setattr__(self, "kwargs", tuple(kw))

    def __call__(self) -> Workload:
        return _resolve_factory(self.factory)(*self.args, **dict(self.kwargs))


@dataclass(frozen=True)
class JobSpec:
    """One simulation: everything :func:`run_workload` needs, by value.

    ``gpu=None`` means the experiment default (``GPUConfig.small()``);
    it is resolved before hashing so an explicit small() and the
    default produce the same cache key.
    """

    workload: WorkloadRef
    arch: ArchSpec
    gpu: Optional[GPUConfig] = None
    seed: int = 1
    jitter: bool = True
    jitter_dram: int = 16
    jitter_icnt: int = 6
    max_cycles: Optional[int] = None
    #: armed fault plan config (chaos campaigns); None = no faults.
    faults: Optional[FaultConfig] = None
    #: seed of the fault plan (meaningful only with ``faults``).
    fault_seed: int = 0
    #: assert protocol invariants at runtime during this job.
    invariants: bool = False
    #: record the reduction-commit stream into ``extra['red_commits']``
    #: (conformance diffing — see :mod:`repro.check`).
    record_state: bool = False

    def resolved_gpu(self) -> GPUConfig:
        return self.gpu if self.gpu is not None else GPUConfig.small()

    def canonical(self) -> Dict[str, object]:
        """JSON-able dict that fully determines the simulation output.

        The arch's ``label`` is a display name, not part of the
        simulation: one machine under two names is one spec.
        """
        doc = _plain(self)
        del doc["arch"]["label"]
        doc["gpu"] = _plain(self.resolved_gpu())
        return doc

    def spec_hash(self) -> str:
        """Content hash of the canonical spec (no code fingerprint).

        Stable across code changes — the identity used for failure
        attribution and poison quarantine, where "which simulation was
        this" matters more than which code ran it.
        """
        payload = json.dumps(self.canonical(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def cache_key(self) -> str:
        payload = json.dumps(
            {"spec": self.canonical(), "fingerprint": cache_fingerprint()},
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _plain(obj):
    """Recursively reduce dataclasses/enums/containers to JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _plain(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in sorted(obj.items())}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for a cache key; "
        f"JobSpec fields must be dataclasses, enums, or JSON scalars"
    )


# ----------------------------------------------------------------------
# Code fingerprint: hash of every simulator source file.  Any edit to
# the package invalidates the cache — coarse but impossible to fool.
# ----------------------------------------------------------------------

@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode("utf-8"))
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def cache_fingerprint() -> str:
    # Reads SWEEP_CACHE_VERSION at call time (not captured) so a bump —
    # including a monkeypatched one in tests — invalidates immediately.
    return f"{SWEEP_CACHE_VERSION}:{code_fingerprint()}"


# ----------------------------------------------------------------------
# Disk cache.
# ----------------------------------------------------------------------

def default_cache_dir() -> Path:
    root = Path(__file__).resolve().parents[3]
    if (root / "benchmarks").is_dir():
        return root / "benchmarks" / "results" / "cache"
    return Path.cwd() / ".repro-sweep-cache"


#: Schema prefix shared by every sweep-cache version.
_CACHE_SCHEMA_PREFIX = "repro.sweep-cache/"


def read_entry(path: Path) -> Tuple[str, Optional[dict]]:
    """Read and judge one cache entry: ``(state, document)``.

    ``state`` is ``"ok"`` (a sealed document of the current schema,
    filed under its own key), ``"stale"`` (another sweep-cache version:
    a miss, not corruption), ``"missing"`` (unreadable) or ``"corrupt"``
    (undecodable bytes, unparseable JSON, a failed checksum, a sealed
    ``key`` other than the file name, or not a cache document at all).
    :meth:`ResultCache.get` and ``repro doctor`` both judge entries
    here, so they cannot disagree about what is corrupt.
    """
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError:
        return "missing", None
    except ValueError:  # UnicodeDecodeError or JSONDecodeError
        return "corrupt", None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema == CACHE_SCHEMA:
        # A whole entry copied onto another key's path verifies: only
        # its sealed key tells that it answers another spec.
        ok = integrity.verify(doc) and doc.get("key") == path.stem
        return ("ok" if ok else "corrupt"), doc
    if isinstance(schema, str) and schema.startswith(_CACHE_SCHEMA_PREFIX):
        return "stale", doc
    return "corrupt", doc


class ResultCache:
    """Content-addressed store: ``<dir>/<key[:2]>/<key>.json``.

    Entries are *sealed*: every document carries a sha256 content
    checksum that is verified on read.  A corrupt entry (bit rot, a
    torn write from a pre-atomic writer, manual tampering) is moved to
    ``<dir>.quarantine/`` — never deleted, the evidence survives for
    ``repro doctor`` — and treated as a miss, so the result is
    transparently recomputed and re-sealed.  Each entry is fsynced
    before its rename, so a directory written by a killed sweep holds
    only whole entries: re-running against it resumes the sweep.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        #: quarantine destinations of corrupt entries seen by this handle.
        self.quarantined: List[Path] = []

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        qpath = integrity.quarantine_file(path, self.root)
        if qpath is not None:
            self.quarantined.append(qpath)

    def get(self, spec: JobSpec) -> Optional[SimResult]:
        path = self.path_for(spec.cache_key())
        state, doc = read_entry(path)
        if state == "corrupt":
            self._quarantine(path)
        if state != "ok":
            return None
        result = SimResult.from_metrics_dict(doc["result"])
        result.label = spec.arch.label
        result.extra["cache_hit"] = True
        return result

    def put(self, spec: JobSpec, result: SimResult) -> None:
        key = spec.cache_key()
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = integrity.seal({
            "schema": CACHE_SCHEMA,
            "key": key,
            "spec": spec.canonical(),
            "result": result.metrics_dict(),
        })
        text = json.dumps(doc, sort_keys=True) + "\n"
        # fsync-then-rename through the injectable write shim (the
        # ENOSPC seam); concurrent writers race benignly.
        integrity.atomic_write_text(path, text)


# ----------------------------------------------------------------------
# Execution.
# ----------------------------------------------------------------------

def _execute_spec(spec: JobSpec, obs: Optional[ObsConfig] = None) -> SimResult:
    """Run one spec to completion (also the worker-side entry point)."""
    return run_workload(
        spec.workload,
        spec.arch,
        gpu_config=spec.resolved_gpu(),
        seed=spec.seed,
        jitter=spec.jitter,
        jitter_dram=spec.jitter_dram,
        jitter_icnt=spec.jitter_icnt,
        max_cycles=spec.max_cycles,
        obs=obs,
        faults=(FaultPlan(spec.fault_seed, spec.faults)
                if spec.faults is not None else None),
        invariants=spec.invariants,
        record_state=spec.record_state,
    )


def _job_ref(index: int, spec: JobSpec) -> Dict[str, object]:
    """Attribution payload for one failing job (SweepJobError.jobs)."""
    return {
        "index": index,
        "workload": spec.workload.factory,
        "spec_hash": spec.spec_hash(),
    }


def _job_desc(ref: Dict[str, object]) -> str:
    return (f"job {ref['index']} (workload={ref['workload']!r}, "
            f"spec_hash={str(ref['spec_hash'])[:16]})")


def run_jobs(
    specs: Iterable[JobSpec],
    jobs: int = 1,
    cache: bool = True,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    obs: Optional[ObsConfig] = None,
    resilience: Optional[ResilienceContext] = None,
) -> List[SimResult]:
    """Execute ``specs``; return results in submission order.

    ``jobs`` worker processes run the cache misses (``1`` runs them in
    this process); ``cache`` reads and writes the result cache under
    ``cache_dir`` (default :func:`default_cache_dir`); ``timeout``
    bounds each job in a pool, in seconds (None: unbounded).  With
    ``obs`` set the whole sweep runs in-process with the cache bypassed
    (hubs are not picklable and a cache hit would observe nothing) —
    requesting ``jobs>1`` together with ``obs`` is an error rather than
    a silent serialization.

    With the cache on, each job's entry is durably written as the job
    completes, so a killed sweep re-run against the same ``cache_dir``
    replays its finished jobs (``extra['cache_hit'] = True``) and
    resumes to a byte-identical result table.

    ``resilience`` (a :class:`~repro.resilience.ResilienceContext`)
    runs every cache miss in a worker process, even at ``jobs=1``
    (never in-process, where a crashing job would kill the
    coordinator); jobs classified as deterministic poison are
    quarantined with structured blame instead of raised, and their
    result slot comes back ``None`` — the caller decides how a
    degraded sweep is recorded.  Specs already quarantined by the
    context are skipped without touching a pool.
    """
    specs = list(specs)
    jobs = max(1, int(jobs))

    if obs is not None and obs.enabled:
        if jobs > 1:
            raise SweepError(
                "observability hubs (tracing/metrics) are not picklable; "
                "traced sweeps must run in-process — use jobs=1"
            )
        return [_execute_spec(s, obs=obs) for s in specs]

    rcache = ResultCache(cache_dir or default_cache_dir()) if cache else None

    results: List[Optional[SimResult]] = [None] * len(specs)
    misses: List[int] = []
    for i, spec in enumerate(specs):
        if resilience is not None \
                and resilience.quarantine.is_poisoned(spec.spec_hash()):
            continue  # known poison: slot stays None, no pool touched
        hit = rcache.get(spec) if rcache is not None else None
        if hit is not None:
            results[i] = hit
        else:
            misses.append(i)

    # Cache writes are best-effort: ENOSPC or a dying disk must not take
    # the sweep down with it.  The first failure disables them (every
    # later write would fail the same way) and warns once.
    writing = rcache is not None

    def _completed(i: int, res: SimResult) -> None:
        nonlocal writing
        results[i] = res
        if not writing:
            return
        try:
            rcache.put(specs[i], res)
        except OSError as exc:
            writing = False
            if resilience is not None:
                resilience.stats.store_write_errors += 1
            print(f"repro.sweep: WARNING: cache write failed ({exc}); "
                  f"sweep continues without durable cache writes",
                  file=sys.stderr)

    if misses:
        if resilience is None and jobs == 1:
            for i in misses:
                _completed(i, _execute_spec(specs[i]))
        else:
            try:
                _run_parallel(specs, misses, jobs=min(jobs, len(misses)),
                              timeout=timeout, on_result=_completed,
                              resilience=resilience)
            except SweepJobError as exc:
                exc.results = list(results)
                raise
    if resilience is not None and rcache is not None:
        resilience.stats.cache_quarantined += len(rcache.quarantined)
    return results  # type: ignore[return-value]


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on hung or dead workers.

    SIGKILL, not SIGTERM: a SIGSTOP'd worker never delivers SIGTERM
    (the signal stays queued while the process is stopped), so a
    terminate()-based teardown would leak stopped processes forever.
    The executor's manager thread is joined (bounded) after the kills:
    left running, it can still be closing its wakeup pipe when the
    interpreter's exit hook writes to it, which prints an ``OSError``
    traceback at exit.
    """
    procs = list(getattr(pool, "_processes", {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            if proc.is_alive():
                proc.kill()
        except Exception:
            pass
    if manager is not None:
        manager.join(timeout=5.0)


def _format_exc(exc: BaseException) -> str:
    return "".join(_traceback.format_exception(
        type(exc), exc, exc.__traceback__)).strip()


def _isolate(spec: JobSpec, index: int, timeout: Optional[float],
             kind: str, tb: str,
             resilience: Optional[ResilienceContext]) -> Optional[SimResult]:
    """Run one job that a dying pool took with it, alone.

    A job whose *shared* pool died is only a suspect: the worker may
    have been killed by the OS, or by another job's crash.  It gets
    exactly :data:`ISOLATION_ATTEMPTS` dedicated single-worker pools;
    completing in one clears it, killing every one is the definition
    of deterministic poison: None is returned, after the job is
    quarantined with blame when ``resilience`` is armed.  Unarmed, the
    job's own exception propagates.  Isolation runs in a subprocess on
    purpose: re-running a crasher in-process would take the
    coordinator down with it.
    """
    for _ in range(ISOLATION_ATTEMPTS):
        if resilience is not None:
            resilience.stats.isolated_attempts += 1
        pool = ProcessPoolExecutor(max_workers=1)
        try:
            future = pool.submit(_execute_spec, spec)
            res = future.result(timeout=timeout)
        except _FuturesTimeout:
            ref = _job_ref(index, spec)
            raise SweepTimeoutError(
                f"{_job_desc(ref)} exceeded the {timeout}s per-job "
                f"timeout in an isolation pool", jobs=[ref])
        except (BrokenProcessPool, OSError) as exc:
            kind = "worker-death"
            tb = _format_exc(exc)
        except Exception as exc:  # the job's own deterministic failure
            if resilience is None:
                raise
            kind = "exception"
            tb = _format_exc(exc)
        else:
            if resilience is not None:
                resilience.stats.isolated_recoveries += 1
            return res
        finally:
            _shutdown_pool(pool)
    if resilience is not None:
        resilience.quarantine.add(
            spec_hash=spec.spec_hash(), workload=spec.workload.factory,
            index=index, kind=kind, attempts=ISOLATION_ATTEMPTS,
            traceback=tb)
    return None


def _run_parallel(specs: Sequence[JobSpec], indices: Sequence[int],
                  jobs: int, timeout: Optional[float], on_result,
                  resilience: Optional[ResilienceContext] = None) -> None:
    """Fan ``specs[j]`` for each ``j`` in ``indices`` out over a process
    pool; isolate what it kills.  Failing jobs are named by ``j``.

    ``on_result(j, result)`` fires as each job's result is harvested (in
    submission order) — the cache-write hook, so a campaign killed
    mid-sweep has durably recorded every harvested job.

    A pool that dies is replaced, up to :data:`POOL_ATTEMPTS` pools;
    the jobs still unfinished after the last one go through
    :func:`_isolate`.  Every pool carries a heartbeat watchdog, so a
    stopped worker is replaced instead of burning the per-job timeout.
    """
    pending = list(indices)
    reasons: Dict[int, str] = {}
    tracebacks: Dict[int, str] = {}
    stats = resilience.stats if resilience is not None else None

    for attempt in range(POOL_ATTEMPTS):
        if not pending:
            break
        if attempt:
            # Exponential backoff: give a dying machine (OOM pressure,
            # fork storms) room to recover before the next pool.
            time.sleep(POOL_BACKOFF_S * (2 ** (attempt - 1)))
        reasons = {}
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
        watchdog = HeartbeatWatchdog(pool, stats=stats).start()
        try:
            futures = {}
            for j in pending:
                try:
                    futures[j] = pool.submit(_execute_spec, specs[j])
                except (BrokenProcessPool, OSError, RuntimeError):
                    # The pool died while we were still submitting.
                    reasons[j] = "broken"
            for j in pending:
                if j not in futures:
                    continue
                try:
                    on_result(j, futures[j].result(timeout=timeout))
                except _FuturesTimeout:
                    reasons[j] = "timeout"
                except (BrokenProcessPool, OSError):
                    reasons[j] = "broken"
                except Exception as exc:
                    if resilience is None:
                        raise  # the job's own error is the caller's
                    # Armed: a job exception is a poison suspect too —
                    # classify it in isolation instead of raising.
                    reasons[j] = "exception"
                    tracebacks[j] = _format_exc(exc)
        finally:
            watchdog.stop()
            _shutdown_pool(pool)
        pending = sorted(reasons)

    timed_out = [j for j in pending if reasons.get(j) == "timeout"]
    if timed_out:
        refs = [_job_ref(j, specs[j]) for j in timed_out]
        raise SweepTimeoutError(
            f"{len(timed_out)} job(s) exceeded the {timeout}s per-job "
            f"timeout after {POOL_ATTEMPTS} attempt(s): "
            + "; ".join(_job_desc(r) for r in refs),
            jobs=refs,
        )
    poison = []
    for j in pending:
        kind = ("exception" if reasons.get(j) == "exception"
                else "worker-death")
        res = _isolate(specs[j], j, timeout, kind, tracebacks.get(j, ""),
                       resilience)
        if res is not None:
            on_result(j, res)
        elif resilience is None:
            poison.append(_job_ref(j, specs[j]))
    if poison:
        raise SweepWorkerError(
            f"{len(poison)} job(s) killed every worker they ran in "
            f"({POOL_ATTEMPTS} shared pool(s), then {ISOLATION_ATTEMPTS} "
            f"pool(s) of their own): "
            + "; ".join(_job_desc(r) for r in poison),
            jobs=poison,
        )
