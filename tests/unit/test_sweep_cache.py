"""Cache-key contract and result round-trip for the sweep engine."""

import dataclasses

import pytest

from repro.config import GPUConfig
from repro.core.dab import DABConfig
from repro.harness.runner import ArchSpec, run_workload
from repro.harness import sweep
from repro.harness.sweep import (
    JobSpec,
    ResultCache,
    WorkloadRef,
    register_workload,
)
from repro.sim.results import SimResult
from repro.workloads.microbench import build_atomic_sum


def _spec(**overrides):
    base = dict(workload=WorkloadRef("atomic_sum", (64,)),
                arch=ArchSpec.baseline())
    base.update(overrides)
    return JobSpec(**base)


class TestCacheKey:
    def test_stable_across_instances(self):
        assert _spec().cache_key() == _spec().cache_key()

    def test_kwargs_order_irrelevant(self):
        a = WorkloadRef("atomic_sum", (64,), {"seed": 1, "cta_dim": 32})
        b = WorkloadRef("atomic_sum", (64,), {"cta_dim": 32, "seed": 1})
        assert a == b
        assert _spec(workload=a).cache_key() == _spec(workload=b).cache_key()

    @pytest.mark.parametrize("change", [
        dict(workload=WorkloadRef("atomic_sum", (128,))),
        dict(workload=WorkloadRef("order_sensitive", (64,))),
        dict(workload=WorkloadRef("atomic_sum", (64,), {"seed": 9})),
        dict(arch=ArchSpec.make_dab()),
        dict(arch=ArchSpec.make_dab(DABConfig(buffer_entries=32))),
        dict(gpu=GPUConfig.tiny()),
        dict(seed=2),
        dict(jitter=False),
        dict(jitter_dram=48),
        dict(jitter_icnt=24),
        dict(max_cycles=1000),
    ])
    def test_any_field_change_changes_key(self, change):
        assert _spec(**change).cache_key() != _spec().cache_key()

    def test_default_gpu_resolves_to_small(self):
        # gpu=None and gpu=small() are the same simulation, same key.
        assert _spec().cache_key() == _spec(gpu=GPUConfig.small()).cache_key()

    def test_version_bump_invalidates(self, monkeypatch):
        before = _spec().cache_key()
        monkeypatch.setattr(sweep, "SWEEP_CACHE_VERSION",
                            sweep.SWEEP_CACHE_VERSION + 1)
        assert _spec().cache_key() != before


class TestWorkloadRef:
    def test_ref_is_a_factory(self):
        wl = WorkloadRef("atomic_sum", (64,))()
        assert wl.name == build_atomic_sum(64).name

    def test_unknown_factory_raises(self):
        with pytest.raises(sweep.UnknownWorkloadError):
            WorkloadRef("no_such_workload")()

    def test_register_conflict_rejected(self):
        register_workload("atomic_sum", build_atomic_sum)  # idempotent
        with pytest.raises(ValueError):
            register_workload("atomic_sum", lambda: None)


class TestResultRoundTrip:
    def test_metrics_dict_round_trip(self):
        res = run_workload(WorkloadRef("atomic_sum", (64,)),
                           ArchSpec.make_dab(), gpu_config=GPUConfig.tiny())
        back = SimResult.from_metrics_dict(res.metrics_dict())
        assert back.metrics_dict() == res.metrics_dict()
        assert back.cycles == res.cycles
        assert back.stalls.as_dict() == res.stalls.as_dict()
        assert back.extra["output_digest"] == res.extra["output_digest"]

    def test_cache_get_put(self, tmp_path):
        spec = _spec(gpu=GPUConfig.tiny())
        cache = ResultCache(tmp_path)
        assert cache.get(spec) is None
        res = sweep._execute_spec(spec)
        cache.put(spec, res)
        hit = cache.get(spec)
        assert hit is not None
        assert hit.extra["cache_hit"] is True
        assert hit.cycles == res.cycles
        # cache_hit is provenance, not simulation output: it must not
        # leak back into the stored document's metrics.
        assert "cache_hit" not in res.extra

    def test_torn_entry_is_a_miss_and_quarantined(self, tmp_path):
        spec = _spec(gpu=GPUConfig.tiny())
        cache = ResultCache(tmp_path)
        path = cache.path_for(spec.cache_key())
        path.parent.mkdir(parents=True)
        path.write_text(f'{{"schema": "{sweep.CACHE_SCHEMA}", "resu')
        assert cache.get(spec) is None
        # A torn entry is corruption: preserved in quarantine, not left
        # in place to fail again on the next read.
        assert not path.exists()
        assert len(cache.quarantined) == 1
        assert cache.quarantined[0].exists()

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        spec = _spec(gpu=GPUConfig.tiny())
        cache = ResultCache(tmp_path)
        res = sweep._execute_spec(spec)
        cache.put(spec, res)
        doc = cache.path_for(spec.cache_key()).read_text()
        cache.path_for(spec.cache_key()).write_text(
            doc.replace(sweep.CACHE_SCHEMA, "repro.sweep-cache/v0"))
        assert cache.get(spec) is None
        # A foreign schema is staleness, not corruption: no quarantine.
        assert cache.quarantined == []

    def test_bitflip_is_quarantined_and_recomputed(self, tmp_path):
        spec = _spec(gpu=GPUConfig.tiny())
        cache = ResultCache(tmp_path)
        res = sweep._execute_spec(spec)
        cache.put(spec, res)
        path = cache.path_for(spec.cache_key())
        doc = path.read_text()
        path.write_text(doc.replace('"cycles": ', '"cycles": 9'))
        assert cache.get(spec) is None          # detected on read
        assert not path.exists()                # quarantined, not in place
        qdir = tmp_path.parent / (tmp_path.name + ".quarantine")
        assert list(qdir.iterdir())             # evidence preserved
        cache.put(spec, res)                    # transparently recomputed
        hit = cache.get(spec)
        assert hit is not None and hit.cycles == res.cycles

    def test_entry_under_another_key_is_quarantined(self, tmp_path):
        """A sealed entry copied onto another spec's path verifies, but
        answers the other spec: it is corrupt, and the job simulates."""
        small = _spec(workload=WorkloadRef("atomic_sum", (48,)),
                      gpu=GPUConfig.tiny())
        spec = _spec(gpu=GPUConfig.tiny())
        cache = ResultCache(tmp_path / "cache")
        cache.put(small, sweep._execute_spec(small))
        path = cache.path_for(spec.cache_key())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(cache.path_for(small.cache_key()).read_bytes())
        # repro doctor judges entries through read_entry too.
        assert sweep.read_entry(path)[0] == "corrupt"
        assert cache.get(spec) is None
        assert not path.exists() and len(cache.quarantined) == 1
        [res] = sweep.run_jobs([spec], jobs=1, cache=True,
                               cache_dir=str(tmp_path / "cache"))
        assert not res.extra.get("cache_hit")
        assert res.cycles == sweep._execute_spec(spec).cycles
        assert res.cycles != cache.get(small).cycles


class TestCanonical:
    def test_canonical_is_json_plain(self):
        import json

        doc = _spec(arch=ArchSpec.make_dab(), gpu=GPUConfig.tiny()).canonical()
        json.dumps(doc, sort_keys=True)  # must not raise

    def test_uncanonicalizable_rejected(self):
        with pytest.raises(TypeError):
            sweep._plain(object())


class TestMetricsSchemaVersioning:
    """Version gate on SimResult.from_metrics_dict (repro.metrics/v3).

    v3 documents round-trip the sweep provenance flags and the host
    wall-clock and phase totals under ``host_profile``; every other
    schema, older ones included, refuses to parse rather than misread.
    """

    def _result_with_provenance(self):
        res = run_workload(WorkloadRef("atomic_sum", (64,)),
                           ArchSpec.baseline(), gpu_config=GPUConfig.tiny())
        res.extra["cache_hit"] = True
        res.extra["journal_hit"] = True
        return res

    def test_v3_round_trips_provenance_flags(self):
        doc = self._result_with_provenance().metrics_dict()
        assert doc["schema"] == "repro.metrics/v3"
        back = SimResult.from_metrics_dict(doc)
        assert back.extra["cache_hit"] is True
        assert back.extra["journal_hit"] is True

    def test_v3_round_trips_host_profile(self):
        res = self._result_with_provenance()
        res.host_phases = {"issue": {"seconds": 0.25, "calls": 3}}
        doc = res.metrics_dict()
        assert doc["host_profile"]["wall_s"] == res.wall_s > 0.0
        assert doc["host_profile"]["phases"] == res.host_phases
        back = SimResult.from_metrics_dict(doc)
        assert back.wall_s == res.wall_s
        assert back.host_phases == res.host_phases
        assert back.metrics_dict() == doc

    @pytest.mark.parametrize("schema", ["repro.metrics/v2",
                                        "repro.metrics/v1", None])
    def test_older_schema_raises(self, schema):
        doc = self._result_with_provenance().metrics_dict()
        if schema is None:
            del doc["schema"]
        else:
            doc["schema"] = schema
        with pytest.raises(ValueError, match="unsupported metrics schema"):
            SimResult.from_metrics_dict(doc)

    def test_unknown_schema_raises(self):
        doc = self._result_with_provenance().metrics_dict()
        doc["schema"] = "repro.metrics/v99"
        with pytest.raises(ValueError, match="unsupported metrics schema"):
            SimResult.from_metrics_dict(doc)
