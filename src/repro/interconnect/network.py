"""Crossbar interconnect timing model.

Models the cluster <-> memory-partition network as a crossbar with:

* a base traversal latency (plus optional jitter — the injected
  non-determinism of ``repro.sim.nondet``),
* per-destination-port serialization at a configurable packet bandwidth
  (contention: packets racing to one partition queue up — this produces
  the "interconnect stalls" and congestion effects behind the paper's
  offset-flushing and buffer-size results, Figs 12 and 16),
* per-source-port injection serialization (a cluster's ejection buffer
  drains at finite rate).

``send`` returns the *arrival cycle*; the caller (the GPU event loop)
schedules the arrival event.  The model is analytic rather than
cycle-ticked, which keeps pure-Python simulation fast while preserving
queueing behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence


@dataclass
class NetworkStats:
    packets: int = 0
    flits: int = 0
    total_queue_delay: int = 0
    max_port_backlog: int = 0


class Network:
    """One direction of the crossbar (requests or responses)."""

    def __init__(
        self,
        num_src_ports: int,
        num_dst_ports: int,
        latency: int,
        flit_bytes: int = 40,
        dst_bandwidth: int = 2,
        src_bandwidth: int = 4,
        input_buffer_flits: int = 256,
        jitter: Optional[Callable[[], int]] = None,
    ):
        if latency < 1:
            raise ValueError("network latency must be >= 1")
        if dst_bandwidth < 1 or src_bandwidth < 1:
            raise ValueError("bandwidths must be >= 1")
        if input_buffer_flits < 1:
            raise ValueError("input buffer must hold at least one flit")
        self.latency = latency
        self.flit_bytes = flit_bytes
        self.dst_bandwidth = dst_bandwidth
        self.src_bandwidth = src_bandwidth
        #: finite per-destination input buffering: once a port's backlog
        #: exceeds this many flits, injection stalls (backpressure) — the
        #: congestion-collapse mechanism behind the paper's offset-
        #: flushing optimization (many SMs bursting to one partition).
        self.input_buffer_flits = input_buffer_flits
        self.jitter = jitter
        self.stats = NetworkStats()
        self._src_free = [0] * num_src_ports
        self._dst_free = [0] * num_dst_ports

    def flits_for(self, payload_bytes: int) -> int:
        return max(1, -(-payload_bytes // self.flit_bytes))

    def send(self, now: int, src: int, dst: int, payload_bytes: int = 8) -> int:
        """Inject a packet; return its arrival cycle at ``dst``."""
        return self.send_grid(now, (src,), (dst,), payload_bytes)[0]

    def send_grid(self, now: int, srcs: Sequence[int], dsts: Sequence[int],
                  payload_bytes: int = 8) -> List[int]:
        """Inject one packet from each of ``srcs`` to each of ``dsts``.

        The packets go out source-major, as nested ``send`` calls would
        send them, with one jitter draw each in that order; the arrival
        cycles come back in the same (row-major) order.  A flush's
        pre-flush grid (every cluster to every memory sub-partition)
        is sent in this one pass.
        """
        flits = self.flits_for(payload_bytes)
        src_cost = max(1, flits // self.src_bandwidth)
        dst_cost = max(1, flits // self.dst_bandwidth)
        # Backpressure: a full destination input buffer delays injection
        # itself, which cascades into this source's later packets (head-
        # of-line blocking at the ejection buffer).
        backlog_limit = self.input_buffer_flits // self.dst_bandwidth
        latency = self.latency
        jitter = self.jitter
        src_free = self._src_free
        dst_free = self._dst_free
        stats = self.stats
        unqueued = now + latency
        delays = 0
        backlog = stats.max_port_backlog
        arrivals: List[int] = []
        for src in srcs:
            for dst in dsts:
                inject = src_free[src]
                if inject < now:
                    inject = now
                earliest_accept = dst_free[dst] - backlog_limit
                if earliest_accept > inject:
                    inject = earliest_accept
                src_free[src] = inject + src_cost
                reach = inject + latency
                if jitter is not None:
                    reach += jitter()
                arrive = dst_free[dst]
                if reach > arrive:
                    arrive = reach
                arrive += dst_cost
                dst_free[dst] = arrive
                if arrive > unqueued:
                    delays += arrive - unqueued
                if arrive - now > backlog:
                    backlog = arrive - now
                arrivals.append(arrive)
        n = len(arrivals)
        stats.packets += n
        stats.flits += flits * n
        stats.total_queue_delay += delays
        stats.max_port_backlog = backlog
        return arrivals

    def earliest_free(self, dst: int) -> int:
        return self._dst_free[dst]
