"""Property: a grid send equals sequential per-packet sends, bit for bit.

``Network.send_grid`` sends one packet from each source to each
destination in one pass, and ``Network.send`` is its 1x1 case.  Each
example draws the port counts, latency, flit size, bandwidths, an input
buffer small enough to hit backpressure, a seeded jitter stream (or
none), some prior single-packet traffic and a few grids, and drives a
``Network`` and the frozen per-packet reference
(:mod:`tests.property.network_reference`) side by side.  After every
step the arrivals (row-major for a grid), the source and destination
port clocks, all four ``NetworkStats`` fields and the number of jitter
draws must be equal.

Runs derandomized; ``--hypothesis-seed=N`` draws a different set.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.interconnect.network import Network
from tests.property.network_reference import ReferenceNetwork


class Jitter:
    """A seeded draw stream that counts its draws."""

    def __init__(self, seed, bound):
        self._rng = np.random.default_rng(seed)
        self.bound = bound
        self.draws = 0

    def __call__(self):
        self.draws += 1
        return int(self._rng.integers(0, self.bound + 1))


@st.composite
def scenarios(draw):
    nsrc = draw(st.integers(1, 6))
    ndst = draw(st.integers(1, 6))
    params = dict(
        latency=draw(st.integers(1, 20)),
        flit_bytes=draw(st.integers(1, 64)),
        dst_bandwidth=draw(st.integers(1, 4)),
        src_bandwidth=draw(st.integers(1, 6)),
        # Small buffers make backpressure (delayed injection) common.
        input_buffer_flits=draw(st.integers(1, 24)),
    )
    jitter = draw(st.one_of(st.none(),
                            st.tuples(st.integers(0, 2**32),
                                      st.integers(0, 30))))
    payload = st.integers(0, 200)
    ports = lambda n: st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=n + 1)
    step = st.one_of(
        st.tuples(st.just("send"), st.integers(0, 60),
                  st.integers(0, nsrc - 1), st.integers(0, ndst - 1),
                  payload),
        st.tuples(st.just("grid"), st.integers(0, 60), ports(nsrc),
                  ports(ndst), payload),
    )
    return nsrc, ndst, params, jitter, draw(st.lists(step, min_size=1,
                                                     max_size=12))


def test_grid_send_equals_sequential_sends(request):
    seeded = request.config.getoption("--hypothesis-seed") is not None

    @settings(max_examples=300, deadline=None, derandomize=not seeded)
    @given(scenarios())
    def check(scenario):
        nsrc, ndst, params, jitter, steps = scenario
        jits = [None, None]
        if jitter is not None:
            jits = [Jitter(*jitter), Jitter(*jitter)]
        net = Network(nsrc, ndst, jitter=jits[0], **params)
        ref = ReferenceNetwork(nsrc, ndst, jitter=jits[1], **params)
        now = 0
        for op, dt, srcs, dsts, nbytes in steps:
            now += dt  # the run loop's clock only moves forward
            if op == "send":
                got = [net.send(now, srcs, dsts, nbytes)]
                want = [ref.send(now, srcs, dsts, nbytes)]
            else:
                got = net.send_grid(now, srcs, dsts, nbytes)
                want = [ref.send(now, s, d, nbytes)
                        for s in srcs for d in dsts]
            assert got == want
            assert all(type(a) is int for a in got)
            assert net._src_free == ref._src_free
            assert net._dst_free == ref._dst_free
            assert (dataclasses.asdict(net.stats)
                    == dataclasses.asdict(ref.stats))
            if jitter is not None:
                assert jits[0].draws == jits[1].draws

    check()
