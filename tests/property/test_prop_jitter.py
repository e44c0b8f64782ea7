"""Property: buffered jitter draws equal numpy's scalar stream, bit for bit.

``JitterSource`` computes its bounded draws in Python from raw PCG64
words (see :mod:`repro.sim.nondet`).  Each example draws a seed, the
two bounds in ``[0, MAX_JITTER]`` (mostly the 0-48 that callers use,
sometimes large enough that the rejection step fires) and an
interleaving of ``dram()``/``icnt()`` calls.  Every value must be a
Python ``int`` equal to the next scalar ``integers(0, max + 1,
dtype=np.int64)`` of a fresh ``default_rng(seed)`` (a zero bound: 0,
with no draw).  A wrong half-word order, rejection threshold or block
refill changes some value.

Runs derandomized; ``--hypothesis-seed=N`` draws a different set.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.nondet import MAX_JITTER, JitterSource

#: bounds: mostly the small magnitudes of the presets and tests, some
#: ranges whose rejection threshold is large, and the extremes.
BOUNDS = st.one_of(
    st.integers(0, 48),
    st.integers(0, 48),
    st.integers(0, 48),
    st.sampled_from((0, 1, 2, 3, 5, 1 << 19, 999_999, MAX_JITTER)),
    st.integers(0, MAX_JITTER),
)


def numpy_stream(seed, dram_max, icnt_max, calls):
    rng = np.random.default_rng(seed)
    out = []
    for which in calls:
        bound = dram_max if which == "dram" else icnt_max
        out.append(0 if bound == 0
                   else int(rng.integers(0, bound + 1, dtype=np.int64)))
    return out


@st.composite
def scenarios(draw):
    seed = draw(st.integers(0, 2**32))
    dram_max = draw(BOUNDS)
    icnt_max = draw(BOUNDS)
    # Short interleavings drawn call by call; long ones (which cross a
    # refill of the raw-word block) from a drawn pattern seed.
    if draw(st.booleans()):
        calls = draw(st.lists(st.sampled_from(("dram", "icnt")),
                              min_size=1, max_size=40))
    else:
        n = draw(st.integers(500, 1500))
        share = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
        pattern = np.random.default_rng(draw(st.integers(0, 2**32)))
        calls = ["dram" if u < share else "icnt"
                 for u in pattern.random(n)]
    return seed, dram_max, icnt_max, calls


def test_buffered_draws_equal_numpy_scalar_stream(request):
    seeded = request.config.getoption("--hypothesis-seed") is not None

    @settings(max_examples=200, deadline=None, derandomize=not seeded)
    @given(scenarios())
    def check(scenario):
        seed, dram_max, icnt_max, calls = scenario
        src = JitterSource(seed, dram_max=dram_max, icnt_max=icnt_max)
        got = [src.dram() if which == "dram" else src.icnt()
               for which in calls]
        assert all(type(v) is int for v in got)
        assert got == numpy_stream(seed, dram_max, icnt_max, calls)

    check()


@pytest.mark.parametrize("seed", range(30))
def test_default_bounds_over_many_blocks(seed):
    """The presets' bounds, over many raw-word refills."""
    src = JitterSource(seed)
    calls = ["dram" if k % 3 == 0 else "icnt" for k in range(3000)]
    got = [src.dram() if which == "dram" else src.icnt() for which in calls]
    assert got == numpy_stream(seed, 16, 6, calls)


def test_numpy_integer_arguments():
    """numpy integer seeds and bounds give the same Python-int stream."""
    a = JitterSource(np.int64(7), dram_max=np.int32(16), icnt_max=np.uint8(6))
    b = JitterSource(7)
    got = [(a.dram(), a.icnt()) for _ in range(200)]
    assert got == [(b.dram(), b.icnt()) for _ in range(200)]
    assert all(type(v) is int for pair in got for v in pair)
