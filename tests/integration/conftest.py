"""Shared fixtures for integration tests."""

import numpy as np
import pytest

from repro.arch.isa import assemble
from repro.arch.kernel import Kernel
from repro.config import GPUConfig
from repro.memory.globalmem import GlobalMemory
from repro.sim.gpu import GPU
from repro.sim.nondet import JitterSource

SUM_PROG = assemble("""
    mov.s32 r_i, %gtid
    setp.ge.s32 p_done, r_i, c_n
@p_done bra DONE
    shl.s32 r_off, r_i, 2
    add.s32 r_addr, c_in, r_off
    ld.global.f32 r_v, [r_addr]
    red.global.add.f32 [c_out], r_v
DONE:
    exit
""")


def build_sum_setup(n=512, seed=0, cta_dim=128, magnitudes=True):
    """(mem, kernel, data) for an order-sensitive reduction kernel."""
    rng = np.random.default_rng(seed)
    if magnitudes:
        expo = rng.integers(-6, 7, size=n)
        data = (rng.uniform(1, 2, n) * 2.0 ** expo
                * rng.choice([-1, 1], n)).astype(np.float32)
    else:
        data = rng.standard_normal(n).astype(np.float32)
    mem = GlobalMemory()
    b_in = mem.alloc("in", n, "f32", init=data)
    b_out = mem.alloc("out", 1, "f32")
    kernel = Kernel("sum", SUM_PROG, grid_dim=-(-n // cta_dim),
                    cta_dim=cta_dim,
                    params={"c_in": b_in, "c_out": b_out, "c_n": n})
    return mem, kernel, data


def run_sum(n=512, seed_jitter=1, dab=None, gpudet=None,
            config=None, data_seed=0, dram_jitter=16, icnt_jitter=6):
    mem, kernel, data = build_sum_setup(n, seed=data_seed)
    gpu = GPU(config or GPUConfig.tiny(), mem, dab=dab, gpudet=gpudet,
              jitter=JitterSource(seed_jitter, dram_max=dram_jitter,
                                  icnt_max=icnt_jitter))
    gpu.launch(kernel)
    result = gpu.run()
    return result, float(mem.buffer("out")[0]), data


@pytest.fixture(scope="session")
def tiny_config():
    return GPUConfig.tiny()


@pytest.fixture(scope="session")
def small_config():
    return GPUConfig.small()


@pytest.fixture(scope="session")
def quick_figure(tmp_path_factory):
    """``quick_figure(name)``: the quick ``run_figure(name)`` table.

    Runs in-process into a scratch run database; the session's figure
    runs share one result cache, so a job another figure already ran
    replays from it.
    """
    from repro.campaign import RunDB
    from repro.harness.experiments import run_figure

    root = tmp_path_factory.mktemp("figures")
    with RunDB(root / "runs.db") as db:
        def run(name):
            return run_figure(name, quick=True, db=db,
                              cache_dir=root / "cache")

        yield run
