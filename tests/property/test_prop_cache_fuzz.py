"""Property: a damaged cache entry is never trusted.

The result cache is the one store a sweep replays and resumes from, so
its read path must survive whatever a dying host leaves in an entry:
a truncation at *any* offset, or garbage written over or spliced in at
*any* offset.  :meth:`ResultCache.get` must never raise.  It returns
either None (a miss, which the sweep recomputes) or a result whose
metrics document equals the stored one.  A corrupt entry is moved to
``<root>.quarantine/`` with its bytes intact, not left in place, and
the directory takes the recomputed entry: a later ``put`` followed by
``get`` round-trips.

Truncations are exhaustive (every byte offset of a real sealed entry,
plain pytest); garbage injection is Hypothesis-driven.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GPUConfig
from repro.harness import sweep
from repro.harness.runner import ArchSpec
from repro.harness.sweep import JobSpec, ResultCache, WorkloadRef, read_entry

SPEC = JobSpec(WorkloadRef("atomic_sum", (48,)), ArchSpec.make_dab(),
               gpu=GPUConfig.tiny(), seed=1)


@pytest.fixture(scope="module")
def stored():
    """One simulated result and the metrics document a replay of it
    must equal."""
    result = sweep._execute_spec(SPEC)
    return result, result.metrics_dict()


def _pristine(cache: ResultCache, result) -> bytes:
    cache.put(SPEC, result)
    return cache.path_for(SPEC.cache_key()).read_bytes()


def _replayed_doc(cache: ResultCache):
    """``cache.get`` (which must not raise) as a metrics document."""
    got = cache.get(SPEC)
    if got is None:
        return None
    assert got.extra.pop("cache_hit") is True
    return got.metrics_dict()


def _assert_read_is_honest(cache: ResultCache, damaged: bytes,
                           doc) -> None:
    path = cache.path_for(SPEC.cache_key())
    path.write_bytes(damaged)
    quarantined = len(cache.quarantined)
    got = _replayed_doc(cache)
    if got is not None:
        assert got == doc, "replayed a WRONG result"
    elif path.exists():
        # Left in place only when it is a parseable entry of another
        # sweep-cache version: a miss by contract, not corruption.
        assert read_entry(path)[0] == "stale"
    else:
        # Corrupt: moved to quarantine byte for byte, never deleted.
        assert len(cache.quarantined) == quarantined + 1
        qpath = cache.quarantined[-1]
        assert qpath.parent == cache.root.parent / "cache.quarantine"
        assert qpath.read_bytes() == damaged


def _assert_heals(cache: ResultCache, result, doc) -> None:
    """The recomputed entry is sealed in place and replays."""
    cache.put(SPEC, result)
    assert _replayed_doc(cache) == doc


def test_truncation_at_every_byte_offset(tmp_path, stored):
    result, doc = stored
    cache = ResultCache(tmp_path / "cache")
    source = _pristine(cache, result)
    for offset in range(len(source) + 1):
        _assert_read_is_honest(cache, source[:offset], doc)
    # Only the last byte (the newline) can go without losing the entry.
    assert len(cache.quarantined) == len(source) - 1
    _assert_heals(cache, result, doc)


@settings(max_examples=60, deadline=None)
@given(
    offset=st.integers(0, 4000),
    garbage=st.binary(min_size=1, max_size=64),
    splice=st.booleans(),
)
def test_garbage_at_any_offset_never_returns_wrong(tmp_path_factory, stored,
                                                   offset, garbage, splice):
    result, doc = stored
    cache = ResultCache(tmp_path_factory.mktemp("fuzz") / "cache")
    source = _pristine(cache, result)
    offset = min(offset, len(source))
    if splice:
        # Insert garbage, keeping the tail (mid-file corruption).
        damaged = source[:offset] + garbage + source[offset:]
    else:
        # Overwrite from offset on (lost tail + foreign bytes).
        damaged = source[:offset] + garbage
    _assert_read_is_honest(cache, damaged, doc)
    _assert_heals(cache, result, doc)
