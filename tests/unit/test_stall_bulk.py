"""Bulk accounting must equal per-cycle accounting, field for field.

The run loop books a whole skipped stall window in one ``record_bulk``
/ ``observe_bulk`` call instead of one record per epoch.  Fig 15 data
must not depend on that, so these pin the equivalence down exactly.
"""

import pytest

from repro.obs.metrics import Histogram
from repro.sim.results import StallBreakdown


ALL_REASONS = [f for f in StallBreakdown._FIELDS if f != "issued"]


@pytest.mark.parametrize("reason", ALL_REASONS)
@pytest.mark.parametrize("count", [1, 2, 7, 1000])
def test_record_bulk_equals_n_records(reason, count):
    bulk = StallBreakdown()
    loop = StallBreakdown()
    bulk.record_bulk(reason, count)
    for _ in range(count):
        loop.record(reason)
    assert bulk.as_dict() == loop.as_dict()
    assert bulk.total == count


def test_record_bulk_nonpositive_is_noop():
    sb = StallBreakdown()
    sb.record_bulk("mem", 0)
    sb.record_bulk("mem", -3)
    assert sb.as_dict() == StallBreakdown().as_dict()


def test_record_bulk_unknown_reason_raises():
    sb = StallBreakdown()
    with pytest.raises(ValueError, match="mystery"):
        sb.record_bulk("mystery", 5)
    assert sb.total == 0


def test_record_bulk_interleaves_with_record():
    bulk = StallBreakdown()
    loop = StallBreakdown()
    script = [("mem", 3), ("barrier", 1), ("mem", 10), ("buffer_full", 4)]
    for reason, n in script:
        bulk.record_bulk(reason, n)
        bulk.record(None)  # an issue between windows
        for _ in range(n):
            loop.record(reason)
        loop.record(None)
    assert bulk.as_dict() == loop.as_dict()


@pytest.mark.parametrize("value", [-1, 0, 3, 10, 99])
@pytest.mark.parametrize("count", [1, 4, 250])
def test_observe_bulk_equals_n_observes(value, count):
    edges = (0, 4, 16, 64)
    bulk = Histogram("h", edges)
    loop = Histogram("h", edges)
    bulk.observe_bulk(value, count)
    for _ in range(count):
        loop.observe(value)
    assert bulk.as_value() == loop.as_value()


def test_observe_bulk_nonpositive_is_noop():
    h = Histogram("h", (1, 2))
    h.observe_bulk(5, 0)
    h.observe_bulk(5, -2)
    assert h.count == 0
    assert h.as_value() == Histogram("h", (1, 2)).as_value()


def test_observe_bulk_min_max_and_sum():
    h = Histogram("h", (10,))
    h.observe_bulk(3, 4)
    h.observe_bulk(20, 2)
    assert (h.min, h.max) == (3, 20)
    assert h.sum == 3 * 4 + 20 * 2
    assert h.count == 6
