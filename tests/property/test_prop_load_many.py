"""Property: ``GlobalMemory.load_many`` equals the per-lane gather.

Each example draws a heap (one to four f32 and s32 buffers of drawn
sizes; each buffer starts on a 128-byte line, so most leave a gap
before the next) and a lane address list of one of these kinds: all
lanes in one buffer, lanes across buffers, one address repeated, a
single lane, and lists with one bad lane (unaligned, in a gap between
buffers, past the last buffer's end, below the heap).  It goes in as an
int64 array, an int32 array or a Python list.  ``load_many`` must
return the same float64 array as the frozen per-lane gather of
``tests/property/globalmem_reference.py``, or raise the same exception
with the same message (the first bad lane's).

Runs derandomized; ``--hypothesis-seed=N`` draws a different set.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.memory.globalmem import GlobalMemory
from tests.property import globalmem_reference as ref

KINDS = ("one", "cross", "repeat", "single", "unaligned", "gap", "past_end",
         "below")


@st.composite
def heaps(draw):
    mem = GlobalMemory()
    specs = draw(st.lists(st.tuples(st.sampled_from(("f32", "s32")),
                                    st.integers(1, 80)),
                          min_size=1, max_size=4))
    for k, (dtype, n) in enumerate(specs):
        # Distinct values per word and buffer, negative ones included.
        init = np.arange(n) * (0.5 if dtype == "f32" else 3) - 1000 * k
        mem.alloc(f"b{k}", n, dtype, init=init)
    return mem


def _word(draw, buf) -> int:
    return buf.base + 4 * draw(st.integers(0, len(buf.data) - 1))


@st.composite
def lanes(draw, mem):
    bufs = mem._buffers
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 32))
    if kind == "single":
        return kind, [_word(draw, draw(st.sampled_from(bufs)))]
    if kind == "repeat":
        return kind, [_word(draw, draw(st.sampled_from(bufs)))] * n
    if kind == "one":
        buf = draw(st.sampled_from(bufs))
        return kind, [_word(draw, buf) for _ in range(n)]
    addrs = [_word(draw, draw(st.sampled_from(bufs))) for _ in range(n)]
    if kind == "cross":
        return kind, addrs
    last = bufs[-1]
    if kind == "unaligned":
        bad = _word(draw, draw(st.sampled_from(bufs))) + draw(
            st.integers(1, 3))
    elif kind == "gap":
        gaps = [(b.end, nxt.base) for b, nxt in zip(bufs, bufs[1:])
                if nxt.base > b.end]
        lo, hi = draw(st.sampled_from(gaps)) if gaps else (last.end,
                                                           last.end + 128)
        bad = draw(st.integers(lo // 4, hi // 4 - 1)) * 4
    elif kind == "past_end":
        bad = last.end + 4 * draw(st.integers(0, 64))
    else:  # below
        bad = 4 * draw(st.integers(0, bufs[0].base // 4 - 1))
    addrs.insert(draw(st.integers(0, len(addrs))), bad)
    return kind, addrs


def _outcome(fn, mem, addrs):
    try:
        out = fn(mem, addrs)
    except Exception as e:  # compared by type and message
        return "raised", type(e), str(e)
    return "ok", out.dtype, out.tobytes()


def test_load_many_equals_per_lane_gather(request):
    seeded = request.config.getoption("--hypothesis-seed") is not None

    @settings(max_examples=300, deadline=None, derandomize=not seeded)
    @given(st.data())
    def check(data):
        mem = data.draw(heaps())
        kind, addrs = data.draw(lanes(mem))
        form = data.draw(st.sampled_from(("int64", "int32", "list")))
        if form == "list":
            given_addrs = list(addrs)
        else:
            given_addrs = np.array(addrs, dtype=form)
        want = _outcome(ref.load_many, mem, given_addrs)
        got = _outcome(GlobalMemory.load_many, mem, given_addrs)
        assert got == want, (kind, form, addrs)
        if want[0] == "ok":
            assert want[1] == np.float64

    check()


def test_every_kind_is_drawn():
    """The strategy reaches every kind of lane list on some heap."""
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def collect(data):
        mem = data.draw(heaps())
        seen.add(data.draw(lanes(mem))[0])

    collect()
    assert seen == set(KINDS)
