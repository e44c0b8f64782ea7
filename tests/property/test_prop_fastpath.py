"""Property: the armed run engine under drawn timing fault plans.

Each draw runs once with every invariant armed, including the ``wake``
check of the engine's incremental state, and once unarmed.  The armed
run must raise nothing and match the unarmed one on every observable,
because the checker only reads.  Both must also agree with the same
workload's fault-free seed-1 run where the architecture promises it:
DAB and GPUDet leave the same memory image, and the baseline commits
the same multiset of reductions, in whatever order.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.config import GPUConfig
from repro.core.dab import DABConfig
from repro.faults import FaultConfig, FaultPlan
from repro.harness.runner import ArchSpec, run_workload
from repro.obs import ObsConfig
from repro.workloads.microbench import (
    build_atomic_sum,
    build_histogram,
    build_mc_barrier,
    build_order_sensitive,
)
from tests.integration.timing_matrix import observables

configs = st.builds(
    FaultConfig,
    dram_burst_prob=st.floats(0.0, 0.5),
    dram_burst_len=st.integers(1, 32),
    dram_burst_extra=st.integers(0, 300),
    icnt_spike_prob=st.floats(0.0, 0.5),
    icnt_spike_max=st.integers(0, 300),
    reorder_prob=st.floats(0.0, 0.4),
    reorder_max_delay=st.integers(0, 64),
    stall_windows=st.integers(0, 4),
    stall_len=st.integers(0, 150),
)

ARCHES = [
    ArchSpec.baseline(),
    ArchSpec.make_dab(DABConfig(buffer_entries=64, scheduler="gwat",
                                fusion=True, coalescing=True), "dab"),
    ArchSpec.make_gpudet(),
]

# The workload pool of the drawn-tuple property, chosen to hit the
# engine's hard edges on the tiny config (2 SMs x 8 warp slots):
#
# * ``atomic_sum``/``histogram`` launch far more CTAs than the machine
#   holds, so CTAs retire and are replaced mid-kernel (row cells are
#   rebound while their scheduler row stays hot);
# * ``mc_barrier`` makes barrier arrival order commit-relevant (the
#   immediate-release path is the one a stale dirty-flag snapshot
#   breaks);
# * ``order_sensitive`` is the floating-point order probe — any
#   scheduling change shows up in its digest.
WORKLOADS = [
    lambda: build_atomic_sum(n=2048, cta_dim=128),
    lambda: build_histogram(n=1024, bins=8, cta_dim=128),
    lambda: build_mc_barrier(n=128),
    lambda: build_order_sensitive(n=512, cta_dim=128),
]


def _run(factory, preset, arch_idx, seed, plan, invariants):
    return observables(run_workload(
        factory, ARCHES[arch_idx], gpu_config=preset(), seed=seed,
        faults=plan, obs=ObsConfig(metrics=True, trace=True),
        record_state=True, invariants=invariants))


@lru_cache(maxsize=None)
def _fault_free(factory, preset, arch_idx):
    return _run(factory, preset, arch_idx, 1, None, False)


def _check(factory, preset, arch_idx, seed, plan):
    armed = _run(factory, preset, arch_idx, seed, plan, True)
    assert armed == _run(factory, preset, arch_idx, seed, plan, False)
    ref = _fault_free(factory, preset, arch_idx)
    if ARCHES[arch_idx].kind == "baseline":
        assert armed["commit_digest"] == ref["commit_digest"]
    else:
        assert armed["mem_digest"] == ref["mem_digest"]


def _sum_1024():
    return build_atomic_sum(1024)


@given(seed=st.integers(0, 2**31), cfg=configs,
       arch_idx=st.integers(0, len(ARCHES) - 1))
@settings(max_examples=12, deadline=None)
def test_engines_agree_under_random_fault_plans(seed, cfg, arch_idx):
    _check(_sum_1024, GPUConfig.small, arch_idx, 1, FaultPlan(seed, cfg))


@given(widx=st.integers(0, len(WORKLOADS) - 1),
       arch_idx=st.integers(0, len(ARCHES) - 1),
       seed=st.integers(1, 2**31),
       fault_seed=st.one_of(st.none(), st.integers(0, 2**31)))
@settings(max_examples=10, deadline=None)
def test_soa_fastpath_equivalent_across_draws(widx, arch_idx, seed,
                                              fault_seed):
    plan = None if fault_seed is None else FaultPlan.sample(fault_seed)
    _check(WORKLOADS[widx], GPUConfig.tiny, arch_idx, seed, plan)
