"""In-memory span tracer that attributes host time to simulator layers.

The tracer wraps the public entry points of each layer from outside the
package: it swaps class (or module) attributes for timing wrappers and
puts the originals back afterwards, so the simulator itself carries no
tracing code.  Every wrapped call records a span
``(run_id, span_id, parent_id, name, t0_ns, t1_ns)``; a layer's *self*
time is the duration of its spans minus the part covered by their child
spans, which is accumulated online as spans close.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Simulator layers in reporting order.  ``workloads`` is the cell
#: factory and the result digest; ``sim.gpu.setup`` is GPU construction.
ENGINE_LAYERS = (
    "workloads", "sim.gpu.setup", "sim.gpu", "sim.dispatcher", "sim.sm",
    "arch.warp", "core.schedulers", "core.atomic_buffer", "core.flush",
    "gpudet", "memory.partition", "memory.globalmem", "interconnect",
)

#: Layers of the campaign path around the simulations.
CAMPAIGN_LAYERS = ("campaign.spec", "harness.sweep", "campaign.rundb",
                   "campaign.html")

#: (owner, attribute, layer, yield function or None).  The owner is a
#: class, a module, or a registry dict (then the attribute is its key).
#: A yield function maps a call's return value to a count of useful
#: outcomes.
Target = Tuple[object, str, str, Optional[Callable[[object], int]]]


def engine_targets() -> List[Target]:
    """The wrapped entry points of the simulator layers."""
    from repro.arch.warp import Warp
    from repro.core import schedulers
    from repro.core.atomic_buffer import AtomicBuffer
    from repro.core.flush import FlushController
    from repro.gpudet.gpudet import GPUDetController, StoreBufferView
    from repro.interconnect.network import Network
    from repro.memory.globalmem import GlobalMemory
    from repro.memory.partition import MemoryPartition
    from repro.sim.dispatcher import CTADispatcher
    from repro.sim.gpu import GPU
    from repro.sim.sm import SM
    from repro.workloads import Workload

    policies = [cls for _, cls in inspect.getmembers(schedulers,
                                                     inspect.isclass)
                if issubclass(cls, schedulers.SchedulerPolicy)
                and "select" in vars(cls)]
    return [
        (Workload, "output_digest", "workloads", None),
        (GPU, "__init__", "sim.gpu.setup", None),
        (GPU, "run", "sim.gpu", None),
        (GPU, "schedule", "sim.gpu", None),
        (CTADispatcher, "place", "sim.dispatcher", int),
        (SM, "issue_cycle_fast", "sim.sm", int),
        (Warp, "step", "arch.warp", None),
        *[(cls, "select", "core.schedulers", None) for cls in policies],
        (AtomicBuffer, "insert", "core.atomic_buffer", None),
        (AtomicBuffer, "drain", "core.atomic_buffer", None),
        (FlushController, "maybe_trigger", "core.flush", int),
        (GPUDetController, "tick", "gpudet", int),
        (GPUDetController, "can_issue", "gpudet", None),
        (GPUDetController, "after_step", "gpudet", None),
        # GPUDet parallel mode: warps read and write through the store
        # buffer, which falls back to GlobalMemory.load per lane.
        (StoreBufferView, "load_many", "gpudet", None),
        (StoreBufferView, "store_many", "gpudet", None),
        (MemoryPartition, "service_request", "memory.partition", None),
        (MemoryPartition, "service_atomic", "memory.partition", None),
        (MemoryPartition, "receive_flush_entry", "memory.partition", None),
        (MemoryPartition, "apply_flush_ops", "memory.partition", None),
        (GlobalMemory, "load", "memory.globalmem", None),
        (GlobalMemory, "load_many", "memory.globalmem", None),
        (GlobalMemory, "store_many", "memory.globalmem", None),
        (GlobalMemory, "apply_atomic", "memory.globalmem", None),
        (Network, "send", "interconnect", None),
    ]


def campaign_targets() -> List[Target]:
    """The wrapped entry points of the campaign path's layers."""
    import repro.campaign.html as html
    import repro.campaign.runner as runner
    import repro.campaign.spec as spec
    from repro.campaign.rundb import RunDB
    from repro.harness.sweep import WORKLOAD_FACTORIES, ResultCache

    return [
        # The campaign builds its cells through the sweep registry.
        *[(WORKLOAD_FACTORIES, name, "workloads", None)
          for name in ("bc", "pagerank", "conv")],
        (spec, "parse_campaign", "campaign.spec", None),
        # The name the campaign runner calls, not the sweep module's own.
        (runner, "run_jobs", "harness.sweep", None),
        (ResultCache, "get", "harness.sweep", lambda r: r is not None),
        (ResultCache, "put", "harness.sweep", None),
        (RunDB, "record_run", "campaign.rundb", None),
        (html, "render_report", "campaign.html", None),
    ]


class Tracer:
    """Span recorder with online self-time accounting per span name.

    A span name is ``"<layer>:<Owner>.<attr>"``.  Spans are kept in one
    flat ``array('q')`` (six integers each) until :meth:`write_jsonl`.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        self.yields: List[int] = []
        #: id shared by the spans of one simulation run (set by the caller).
        self.run_id = 0
        self._next_span = 0
        self._stack: List[List[int]] = []     # [span_id, child_ns]
        self._spans = array("q")

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.yields.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, fn: Callable,
             yield_fn: Optional[Callable[[object], int]] = None) -> Callable:
        """Return ``fn`` wrapped so every call records a span ``name``."""
        idx = self._register(name)
        stack = self._stack
        spans = self._spans
        calls, self_ns, yields = self.calls, self.self_ns, self.yields
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            tracer._next_span += 1
            sid = tracer._next_span
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self_ns[idx] += dur - frame[1]
                calls[idx] += 1
                spans.extend((tracer.run_id, sid, parent, idx, t0, t1))
            if yield_fn is not None:
                yields[idx] += yield_fn(result)
            return result

        return traced

    def by_layer(self, field: List[int]) -> Dict[str, int]:
        """Sum one per-name counter (calls/self_ns/yields) per layer."""
        out: Dict[str, int] = {}
        for name, v in zip(self.names, field):
            layer = name.split(":", 1)[0]
            out[layer] = out.get(layer, 0) + v
        return out

    def write_jsonl(self, path) -> None:
        """Gzipped JSONL, one object per span: run, span, parent, layer,
        name, t0, t1 (``perf_counter_ns`` values)."""
        s = self._spans
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            for i in range(0, len(s), 6):
                name = self.names[s[i + 3]]
                layer, _, entry = name.partition(":")
                f.write(json.dumps(
                    {"run": s[i], "span": s[i + 1], "parent": s[i + 2],
                     "layer": layer, "name": entry,
                     "t0": s[i + 4], "t1": s[i + 5]},
                    separators=(",", ":")) + "\n")


def lookup(owner, attr):
    """The target's own current value (not an inherited one)."""
    return owner[attr] if isinstance(owner, dict) else vars(owner)[attr]


def _assign(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


@contextmanager
def installed(tracer: Tracer, targets: List[Target]) -> Iterator[Tracer]:
    """Swap every target for a traced wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, layer, yield_fn in targets:
            original = lookup(owner, attr)
            name = f"{layer}:{getattr(owner, '__name__', 'registry')}.{attr}"
            _assign(owner, attr, tracer.wrap(name, original, yield_fn))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            _assign(owner, attr, original)
