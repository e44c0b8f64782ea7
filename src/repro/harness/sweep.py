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
  submission order.  ``jobs=1`` is the exact legacy serial path;
  ``jobs>1`` fans out over a ``ProcessPoolExecutor``.  Because every
  job is an independent deterministic simulation and results are
  reassembled by index, a parallel sweep is byte-identical to a serial
  one (asserted in CI).
* :class:`ResultCache` — a content-addressed disk cache under
  ``benchmarks/results/cache/``.  The key is the sha256 of the
  canonical JobSpec document plus a fingerprint of the simulator
  sources and :data:`SWEEP_CACHE_VERSION`, so *any* code change or
  schema bump invalidates every entry.  Cached results round-trip
  through ``SimResult.metrics_dict()`` and carry
  ``extra['cache_hit'] = True``.

Failure semantics (documented contract, exercised by the integration
tests): an exception raised *by the job itself* propagates to the
caller; a worker process dying (``BrokenProcessPool``) is retried in a
fresh pool — with exponential backoff between attempts — and after
``retries`` attempts the engine degrades gracefully to serial
in-process execution (``serial_fallback=False`` raises
:class:`SweepWorkerError` instead); a job exceeding ``timeout`` seconds
is retried and then raises :class:`SweepTimeoutError` — a hang is never
retried in-process, where it could not be interrupted.  Both error
types carry ``.jobs``: the canonical spec hash and workload name of
every failing job, so a failed chaos campaign is attributable and
re-runnable.

Passing ``resilience`` (a
:class:`~repro.resilience.ResilienceContext`) arms **failure
classification**: jobs whose shared pool died are re-run in fresh
single-worker pools instead of in-process (where a crashing job would
kill the coordinator); a job that kills
:data:`~repro.resilience.ISOLATION_ATTEMPTS` dedicated pools in a row
is deterministically poisonous and is *quarantined* with structured
blame — its result slot comes back ``None`` and the sweep completes in
explicitly-recorded degraded mode.  A heartbeat watchdog
(:mod:`repro.resilience.watchdog`) additionally samples worker kernel
states so a SIGSTOP'd worker is killed and replaced within
``watchdog_interval * watchdog_grace`` seconds instead of burning the
per-job timeout.

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
import os
import sys
import time
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
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


class SweepError(RuntimeError):
    """Sweep engine misuse or unrecoverable executor failure."""


class SweepJobError(SweepError):
    """A sweep failure attributable to specific jobs.

    ``jobs`` is a list of ``{"index", "workload", "spec_hash"}`` dicts —
    the canonical spec hash and workload name of every failing job, so a
    failed chaos campaign can be diagnosed and the exact jobs re-run.
    """

    def __init__(self, message: str, jobs=()):
        super().__init__(message)
        self.jobs = list(jobs)


class SweepTimeoutError(SweepJobError):
    """A job exceeded its per-job timeout (after retries)."""


class SweepWorkerError(SweepJobError):
    """Workers kept dying and serial fallback was disabled."""


class UnknownWorkloadError(SweepError):
    """A WorkloadRef names a factory missing from the registry.

    Raised in-process for a genuinely unknown name; when it arrives
    from a *worker* it usually means the registry entry was registered
    after the pool forked — the engine falls back to in-process
    execution, where the entry is visible (or the real error surfaces).
    """


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
        """JSON-able dict that fully determines the simulation output."""
        doc = _plain(self)
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
    env = os.environ.get("REPRO_SWEEP_CACHE_DIR")
    if env:
        return Path(env)
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
        result.extra["cache_hit"] = True
        return result

    def put(self, spec: JobSpec, result: SimResult) -> None:
        key = spec.cache_key()
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        stored = result.metrics_dict()
        # serial_fallback describes how *this* run was executed, not
        # the result itself — a later cache hit must not inherit it.
        extra = dict(stored.get("extra", {}))
        if extra.pop("serial_fallback", None) is not None:
            stored["extra"] = extra
        doc = integrity.seal({
            "schema": CACHE_SCHEMA,
            "key": key,
            "spec": spec.canonical(),
            "result": stored,
        })
        text = json.dumps(doc, sort_keys=True) + "\n"
        # fsync-then-rename through the injectable write shim (the
        # ENOSPC seam); concurrent writers race benignly.
        integrity.atomic_write_text(path, text)


# ----------------------------------------------------------------------
# Engine configuration (CLI / conftest / env wiring).
# ----------------------------------------------------------------------

@dataclass
class SweepConfig:
    jobs: int = 1
    cache: bool = True
    cache_dir: Optional[str] = None
    timeout: Optional[float] = None
    #: pool attempts before giving up on parallel execution.
    retries: int = 2
    #: base of the exponential backoff between pool attempts (seconds):
    #: sleep ``backoff * 2**(attempt-1)`` before attempt 2, 3, ...
    backoff: float = 0.5
    #: degrade to serial in-process execution when the pool keeps dying
    #: (False raises SweepWorkerError instead).
    serial_fallback: bool = True
    #: arm the heartbeat watchdog on every pool (no-op off Linux).
    watchdog: bool = True
    #: seconds between worker-state samples.
    watchdog_interval: float = 0.25
    #: consecutive stopped observations before a worker is killed.
    watchdog_grace: int = 2


def _config_from_env() -> SweepConfig:
    cfg = SweepConfig()
    jobs = os.environ.get("REPRO_SWEEP_JOBS")
    if jobs:
        cfg.jobs = max(1, int(jobs))
    cache = os.environ.get("REPRO_SWEEP_CACHE")
    if cache is not None:
        cfg.cache = cache not in ("", "0")
    cfg.cache_dir = os.environ.get("REPRO_SWEEP_CACHE_DIR") or None
    return cfg


_CONFIG: Optional[SweepConfig] = None


def get_config() -> SweepConfig:
    global _CONFIG
    if _CONFIG is None:
        _CONFIG = _config_from_env()
    return _CONFIG


def configure(jobs: Optional[int] = None, cache: Optional[bool] = None,
              cache_dir: Optional[str] = None,
              timeout: Optional[float] = None,
              retries: Optional[int] = None,
              backoff: Optional[float] = None,
              serial_fallback: Optional[bool] = None,
              watchdog: Optional[bool] = None,
              watchdog_interval: Optional[float] = None,
              watchdog_grace: Optional[int] = None) -> SweepConfig:
    """Set session-wide defaults for :func:`run_jobs` (None = keep)."""
    cfg = get_config()
    if jobs is not None:
        cfg.jobs = max(1, int(jobs))
    if cache is not None:
        cfg.cache = cache
    if cache_dir is not None:
        cfg.cache_dir = str(cache_dir)
    if timeout is not None:
        cfg.timeout = timeout
    if retries is not None:
        cfg.retries = max(1, int(retries))
    if backoff is not None:
        cfg.backoff = max(0.0, float(backoff))
    if serial_fallback is not None:
        cfg.serial_fallback = serial_fallback
    if watchdog is not None:
        cfg.watchdog = watchdog
    if watchdog_interval is not None:
        cfg.watchdog_interval = max(0.01, float(watchdog_interval))
    if watchdog_grace is not None:
        cfg.watchdog_grace = max(1, int(watchdog_grace))
    return cfg


@contextmanager
def configured(**kwargs):
    """Temporarily override the session sweep configuration."""
    global _CONFIG
    saved = dataclasses.replace(get_config())
    try:
        configure(**kwargs)
        yield get_config()
    finally:
        _CONFIG = saved


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
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    obs: Optional[ObsConfig] = None,
    resilience: Optional[ResilienceContext] = None,
) -> List[SimResult]:
    """Execute ``specs``; return results in submission order.

    Defaults for every knob come from the session :class:`SweepConfig`
    (see :func:`configure`); explicit arguments win.  With ``obs`` set
    the whole sweep runs in-process with the cache bypassed (hubs are
    not picklable and a cache hit would observe nothing) — requesting
    ``jobs>1`` together with ``obs`` is an error rather than a silent
    serialization.

    With the cache on, each job's entry is durably written as the job
    completes, so a killed sweep re-run against the same ``cache_dir``
    replays its finished jobs (``extra['cache_hit'] = True``) and
    resumes to a byte-identical result table.

    ``resilience`` (a :class:`~repro.resilience.ResilienceContext`)
    arms failure classification: every cache miss executes in a worker
    process (never in-process, where a crashing job would kill the
    coordinator), jobs classified as deterministic poison are
    quarantined with structured blame instead of raised, and their
    result slot comes back ``None`` — the caller decides how a
    degraded sweep is recorded.  Specs already quarantined by the
    context are skipped without touching a pool.
    """
    specs = list(specs)
    cfg = get_config()
    jobs = cfg.jobs if jobs is None else max(1, int(jobs))
    use_cache = cfg.cache if cache is None else cache
    timeout = cfg.timeout if timeout is None else timeout

    if obs is not None and obs.enabled:
        if jobs > 1:
            raise SweepError(
                "observability hubs (tracing/metrics) are not picklable; "
                "traced sweeps must run in-process — use jobs=1"
            )
        return [_execute_spec(s, obs=obs) for s in specs]

    rcache = None
    if use_cache:
        rcache = ResultCache(cache_dir or cfg.cache_dir or default_cache_dir())

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
        if resilience is None and (jobs == 1 or len(misses) == 1):
            for i in misses:
                _completed(i, _execute_spec(specs[i]))
        else:
            _run_parallel(
                [specs[i] for i in misses],
                jobs=min(jobs, len(misses)),
                timeout=timeout,
                on_result=lambda j, res: _completed(misses[j], res),
                resilience=resilience,
            )
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
             resilience: ResilienceContext) -> Optional[SimResult]:
    """Classify one suspect job in fresh single-worker pools.

    A job whose *shared* pool died is only a suspect: the worker may
    have been killed by the OS for someone else's sins.  It gets
    exactly :data:`ISOLATION_ATTEMPTS` dedicated pools; completing in
    one clears it (transient), killing every one is the definition of
    deterministic poison — quarantine with blame, return None.
    Isolation runs in a subprocess on purpose: re-running a crasher
    in-process would take the coordinator down with it.
    """
    for _ in range(ISOLATION_ATTEMPTS):
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
            kind = "exception"
            tb = _format_exc(exc)
        else:
            resilience.stats.isolated_recoveries += 1
            return res
        finally:
            _shutdown_pool(pool)
    resilience.quarantine.add(
        spec_hash=spec.spec_hash(), workload=spec.workload.factory,
        index=index, kind=kind, attempts=ISOLATION_ATTEMPTS, traceback=tb)
    return None


def _run_parallel(specs: Sequence[JobSpec], jobs: int,
                  timeout: Optional[float],
                  on_result=None,
                  resilience: Optional[ResilienceContext] = None,
                  ) -> List[Optional[SimResult]]:
    """Fan ``specs`` out over a process pool with retry and degradation.

    ``on_result(j, result)`` fires as each job's result is harvested (in
    submission order) — the cache-write hook, so a campaign killed
    mid-sweep has durably recorded every harvested job.

    With ``resilience`` armed, pool-killing survivors go through
    :func:`_isolate` (fresh single-worker pools, then quarantine)
    instead of in-process serial fallback, and every pool carries a
    heartbeat watchdog so stopped workers are replaced within
    ``watchdog_interval * watchdog_grace`` seconds.
    """
    cfg = get_config()
    attempts = max(1, cfg.retries)
    results: List[Optional[SimResult]] = [None] * len(specs)
    pending = list(range(len(specs)))
    reasons: Dict[int, str] = {}
    tracebacks: Dict[int, str] = {}
    stats = resilience.stats if resilience is not None else None

    def _harvested(j: int, res: SimResult) -> None:
        results[j] = res
        if on_result is not None:
            on_result(j, res)

    for attempt in range(attempts):
        if not pending:
            break
        if attempt:
            # Exponential backoff: give a dying machine (OOM pressure,
            # fork storms) room to recover before the next pool.
            time.sleep(cfg.backoff * (2 ** (attempt - 1)))
        reasons = {}
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
        watchdog = None
        if cfg.watchdog:
            watchdog = HeartbeatWatchdog(
                pool, interval=cfg.watchdog_interval,
                grace=cfg.watchdog_grace, stats=stats).start()
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
                    _harvested(j, futures[j].result(timeout=timeout))
                except _FuturesTimeout:
                    reasons[j] = "timeout"
                except (BrokenProcessPool, OSError):
                    reasons[j] = "broken"
                except UnknownWorkloadError:
                    # Registry entry not visible in the worker (spawn
                    # semantics / late registration): recoverable
                    # in-process, where the registry is authoritative.
                    reasons[j] = "broken"
                except Exception as exc:
                    if resilience is None:
                        raise  # legacy contract: the job's error is yours
                    # Armed: a job exception is a poison suspect too —
                    # classify it in isolation instead of raising.
                    reasons[j] = "exception"
                    tracebacks[j] = _format_exc(exc)
        finally:
            if watchdog is not None:
                watchdog.stop()
            _shutdown_pool(pool)
        pending = sorted(reasons)

    timed_out = [j for j in pending if reasons.get(j) == "timeout"]
    if timed_out:
        refs = [_job_ref(j, specs[j]) for j in timed_out]
        raise SweepTimeoutError(
            f"{len(timed_out)} job(s) exceeded the {timeout}s per-job "
            f"timeout after {attempts} attempt(s): "
            + "; ".join(_job_desc(r) for r in refs),
            jobs=refs,
        )
    if pending and resilience is not None:
        # Failure classification: transient deaths recover in a fresh
        # dedicated pool; deterministic poison is quarantined with
        # blame and its result slot stays None.
        for j in pending:
            kind = ("exception" if reasons.get(j) == "exception"
                    else "worker-death")
            res = _isolate(specs[j], j, timeout, kind,
                           tracebacks.get(j, ""), resilience)
            if res is not None:
                _harvested(j, res)
        return results
    if pending and not cfg.serial_fallback:
        refs = [_job_ref(j, specs[j]) for j in pending]
        raise SweepWorkerError(
            f"worker pool died on {len(pending)} job(s) across {attempts} "
            f"attempt(s) and serial fallback is disabled: "
            + "; ".join(_job_desc(r) for r in refs),
            jobs=refs,
        )
    # Worker death survivors: graceful in-process degradation.  An
    # exception here is the job's own and propagates normally.
    for j in pending:
        res = _execute_spec(specs[j])
        res.extra["serial_fallback"] = True  # provenance, like cache_hit
        _harvested(j, res)
    return results  # type: ignore[return-value]
