"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Components register instruments under hierarchical dotted names
(``sm.3.sched.0.atomics_buffered``, ``partition.1.flush.reorder_depth``)
and the registry renders everything into one deterministic, sorted
dictionary for ``SimResult.metrics_dict()`` / ``--metrics-json``.

Determinism rules baked in:

* histogram bucket *edges are fixed at registration time* — never
  derived from observed data — so two identical runs always produce
  identical bucket layouts;
* ``as_dict`` orders metrics by name and histogram fields by edge, so
  serializing with ``sort_keys`` yields byte-identical JSON for
  identical runs;
* instruments hold plain ints/floats only; no wall-clock state (host
  timing lives in :mod:`repro.obs.profile` and is reported separately).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]


class MetricError(ValueError):
    """Registration collision or invalid instrument definition."""


class Counter:
    """Monotonic event count."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: Number = 1) -> None:
        self.value += n

    def as_value(self):
        return self.value


class Gauge:
    """Last-written value, with the running maximum kept alongside.

    The max matters for capacity questions (peak reorder-buffer depth,
    peak buffer occupancy) where the final sample is usually zero.
    """

    kind = "gauge"
    __slots__ = ("name", "value", "max")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.max = 0

    def set(self, v: Number) -> None:
        self.value = v
        if v > self.max:
            self.max = v

    def as_value(self):
        return {"value": self.value, "max": self.max}


class Histogram:
    """Histogram over *fixed* bucket edges (chosen at registration).

    ``edges = (e0, e1, ..., ek)`` produces k+2 buckets:
    ``(-inf, e0], (e0, e1], ..., (e_{k-1}, ek], (ek, +inf)``.
    Fixed edges keep two identical runs bitwise-comparable; a histogram
    that auto-scaled to observed data would not be.
    """

    kind = "histogram"
    __slots__ = ("name", "edges", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, edges: Sequence[Number]):
        if not edges:
            raise MetricError(f"histogram {name!r} needs at least one edge")
        ordered = tuple(edges)
        if any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise MetricError(
                f"histogram {name!r} edges must be strictly increasing"
            )
        self.name = name
        self.edges = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.sum = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe(self, v: Number) -> None:
        lo, hi = 0, len(self.edges)
        while lo < hi:  # first edge >= v (bisect_left over "v <= edge")
            mid = (lo + hi) // 2
            if v <= self.edges[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.count += 1
        self.sum += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    def observe_bulk(self, v: Number, n: int) -> None:
        """Record ``n`` identical observations of ``v`` in one call.

        Equivalent to ``n`` :meth:`observe` calls; lets an event-driven
        producer (closing an N-epoch stall window, say) book a whole
        skipped range without an O(N) loop.
        """
        if n <= 0:
            return
        lo, hi = 0, len(self.edges)
        while lo < hi:
            mid = (lo + hi) // 2
            if v <= self.edges[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += n
        self.count += n
        self.sum += v * n
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    def as_value(self):
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Name -> instrument map with get-or-create registration.

    Re-registering a name with the *same* kind (and, for histograms, the
    same edges) returns the existing instrument, so loosely-coupled
    components can share a metric.  Any mismatch raises
    :class:`MetricError` — silent type punning would corrupt exports.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Instrument] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[Instrument]:
        return self._metrics.get(name)

    # -- registration -----------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self._register(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._register(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, edges: Sequence[Number]) -> Histogram:
        h = self._register(name, Histogram, lambda: Histogram(name, edges))
        if h.edges != tuple(edges):
            raise MetricError(
                f"histogram {name!r} already registered with edges "
                f"{h.edges}, not {tuple(edges)}"
            )
        return h

    def _register(self, name: str, cls, factory):
        if not name:
            raise MetricError("metric name must be non-empty")
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, cannot re-register as "
                    f"{cls.kind}"
                )
            return existing
        inst = factory()
        self._metrics[name] = inst
        return inst

    # -- export -----------------------------------------------------------
    def as_dict(self) -> Dict[str, dict]:
        """``{name: {"kind": ..., "value"/fields...}}`` sorted by name."""
        out: Dict[str, dict] = {}
        for name in sorted(self._metrics):
            inst = self._metrics[name]
            val = inst.as_value()
            if not isinstance(val, dict):
                val = {"value": val}
            entry = {"kind": inst.kind}
            entry.update(val)
            out[name] = entry
        return out

    def prefixed(self, prefix: str) -> Dict[str, dict]:
        """The ``as_dict`` slice whose names start with ``prefix``."""
        return {k: v for k, v in self.as_dict().items()
                if k.startswith(prefix)}
