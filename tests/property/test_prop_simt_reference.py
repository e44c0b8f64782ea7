"""Property: ``SIMTStack`` equals the frozen stack, transition by transition.

Each example draws a warp size, an initial mask and a sequence of
``advance``, ``jump``, ``branch`` and ``exit_lanes`` calls over a small
pc range, so that pcs often land on a reconvergence pc, divergence
nests and lanes retire mid-divergence.  Both stacks take the same calls
until every lane has exited; after each one, ``snapshot()``, ``pc``,
``active_mask`` and ``done`` must agree with the frozen
``tests/property/simt_reference.py``.

Runs derandomized; ``--hypothesis-seed=N`` draws a different set.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.arch.simt_stack import SIMTStack
from tests.property.simt_reference import ReferenceSIMTStack

PCS = st.integers(0, 10)


def masks(ws):
    return st.lists(st.booleans(), min_size=ws, max_size=ws).map(
        lambda bits: np.array(bits, dtype=bool))


#: call kinds, advances weighted up so that pcs run into reconvergence
#: points between branches.
KINDS = ("advance",) * 4 + ("jump", "branch", "branch", "exit_lanes")


@st.composite
def programs(draw):
    ws = draw(st.sampled_from((1, 2, 4, 8, 32)))
    start = draw(masks(ws).filter(lambda m: m.any()))
    calls = []
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(KINDS))
        if kind == "advance":
            calls.append((kind,))
        elif kind == "jump":
            calls.append((kind, draw(PCS)))
        elif kind == "branch":
            calls.append((kind, draw(masks(ws)), draw(PCS), draw(PCS)))
        else:
            calls.append((kind, draw(st.one_of(st.none(), masks(ws)))))
    return ws, draw(PCS), start, calls


def _state(stack):
    if stack.done:
        return True, stack.snapshot(), None, None
    return False, stack.snapshot(), stack.pc, stack.active_mask.tobytes()


def test_stack_equals_reference(request):
    seeded = request.config.getoption("--hypothesis-seed") is not None

    @settings(max_examples=400, deadline=None, derandomize=not seeded)
    @given(programs())
    def check(program):
        ws, pc, start, calls = program
        stacks = [SIMTStack(ws, pc, start), ReferenceSIMTStack(ws, pc, start)]
        for step, (name, *args) in enumerate(calls):
            for stack in stacks:
                getattr(stack, name)(*args)
            got, want = map(_state, stacks)
            assert got == want, (step, name, args)
            if want[0]:
                break

    check()
