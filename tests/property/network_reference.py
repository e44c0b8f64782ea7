"""The per-packet crossbar send, frozen as a reference.

:class:`repro.interconnect.network.Network` sends a grid of packets in
one pass (``send_grid``), and its ``send`` is the grid's one-packet
case.  This is the per-packet ``send`` they replaced, unchanged, so
``tests/property/test_prop_grid_send.py`` can hold both against
sequential sends.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.interconnect.network import NetworkStats


class ReferenceNetwork:
    """One direction of the crossbar, one packet per call."""

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
        self.latency = latency
        self.flit_bytes = flit_bytes
        self.dst_bandwidth = dst_bandwidth
        self.src_bandwidth = src_bandwidth
        self.input_buffer_flits = input_buffer_flits
        self.jitter = jitter
        self.stats = NetworkStats()
        self._src_free = [0] * num_src_ports
        self._dst_free = [0] * num_dst_ports

    def flits_for(self, payload_bytes: int) -> int:
        return max(1, -(-payload_bytes // self.flit_bytes))

    def send(self, now: int, src: int, dst: int, payload_bytes: int = 8) -> int:
        flits = self.flits_for(payload_bytes)
        inject = max(now, self._src_free[src])
        backlog_limit = self.input_buffer_flits // self.dst_bandwidth
        earliest_accept = self._dst_free[dst] - backlog_limit
        if earliest_accept > inject:
            inject = earliest_accept
        self._src_free[src] = inject + max(1, flits // self.src_bandwidth)
        jitter = self.jitter() if self.jitter is not None else 0
        reach = inject + self.latency + jitter
        arrive = max(reach, self._dst_free[dst]) + max(1, flits // self.dst_bandwidth)
        self._dst_free[dst] = arrive
        self.stats.packets += 1
        self.stats.flits += flits
        delay = arrive - (now + self.latency)
        if delay > 0:
            self.stats.total_queue_delay += delay
        backlog = self._dst_free[dst] - now
        self.stats.max_port_backlog = max(self.stats.max_port_backlog, backlog)
        return arrive
