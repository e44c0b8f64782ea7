"""Heartbeat watchdog: a SIGSTOP'd worker is a fault, not a slow job.

The sweep engine's per-job ``timeout`` catches runaway simulations,
but it is sized for the *slowest legitimate job* — letting a hung
worker burn the full timeout turns one stopped process into minutes of
lost budget per job.  The watchdog closes that gap for the failure
mode the timeout cannot see early: a worker that is **stopped** (SIGSTOP,
``kill -STOP``, a debugger detach gone wrong, cgroup freezer).  Such a
worker is alive — ``Process.is_alive()`` is true, the pool keeps
waiting — but it will never make progress until something sends
SIGCONT.

The watchdog thread samples each worker's kernel state (the third
field of ``/proc/<pid>/stat``) every :data:`INTERVAL_S` seconds; a
worker observed in the stopped state :data:`GRACE_TICKS` consecutive
times is SIGKILLed (SIGKILL, unlike SIGTERM, takes effect even while a
process is stopped).  The kill breaks the pool, and the engine's
existing broken-pool retry machinery replaces it and re-runs the
in-flight jobs — detection to replacement takes about half a second
instead of the per-job timeout.

CPU-spinning hangs (infinite loops) are indistinguishable from slow
jobs without instrumenting the simulation loop; those remain the
timeout's responsibility (see DESIGN.md §14).  On platforms without
``/proc`` the watchdog degrades to a no-op.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Dict, Optional

from repro.resilience.quarantine import ResilienceStats

#: Seconds between samples of the workers' kernel states.
INTERVAL_S = 0.25

#: Consecutive stopped observations before a worker is killed.
GRACE_TICKS = 2


def proc_state(pid: int) -> Optional[str]:
    """Kernel state letter of ``pid`` ("R", "S", "T", ...), or None.

    Parses ``/proc/<pid>/stat`` from the *last* ``)`` so command names
    containing spaces or parentheses cannot shift the field.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    try:
        return data.rsplit(b")", 1)[1].split()[0].decode("ascii")
    except (IndexError, UnicodeDecodeError):
        return None


def watchdog_supported() -> bool:
    """True when worker states can be observed on this platform."""
    return os.path.isdir("/proc") and hasattr(signal, "SIGKILL")


class HeartbeatWatchdog:
    """Background sampler of one process pool's worker states.

    ``pool`` is a ``ProcessPoolExecutor``; the watchdog reads its live
    worker pids each tick (workers come and go as the pool replaces
    them).  Stopped workers are SIGKILLed after :data:`GRACE_TICKS`
    consecutive stopped observations; each kill increments
    ``replaced`` (and ``stats.workers_replaced`` when a stats sink is
    attached).
    """

    def __init__(self, pool,
                 stats: Optional[ResilienceStats] = None) -> None:
        self.pool = pool
        self.stats = stats
        self.replaced = 0
        self._stopped_ticks: Dict[int, int] = {}
        self._halt = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> "HeartbeatWatchdog":
        if not watchdog_supported():
            return self  # graceful no-op off Linux
        self._thread = threading.Thread(
            target=self._run, name="repro-sweep-watchdog", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._halt.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "HeartbeatWatchdog":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _worker_pids(self):
        procs = getattr(self.pool, "_processes", None) or {}
        return list(procs.keys())

    def _run(self) -> None:
        while not self._halt.wait(INTERVAL_S):
            pids = self._worker_pids()
            for pid in pids:
                state = proc_state(pid)
                if state in ("T", "t"):
                    ticks = self._stopped_ticks.get(pid, 0) + 1
                    self._stopped_ticks[pid] = ticks
                    if ticks >= GRACE_TICKS:
                        self._kill(pid)
                else:
                    self._stopped_ticks.pop(pid, None)
            # Forget pids the pool no longer owns.
            for pid in list(self._stopped_ticks):
                if pid not in pids:
                    self._stopped_ticks.pop(pid, None)

    def _kill(self, pid: int) -> None:
        try:
            os.kill(pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            return  # already gone: the pool noticed first
        self._stopped_ticks.pop(pid, None)
        self.replaced += 1
        if self.stats is not None:
            self.stats.workers_replaced += 1
