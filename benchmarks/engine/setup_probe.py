"""Time one fresh interpreter's set-up for a workload, ready to run.

    python3 setup_probe.py WORKLOAD

Prints the seconds from the top of this script to a constructed GPU:
``import repro`` (with the benchmark's own modules), the first cell's
workload build and ``GPU(...)`` construction.  For the campaign it is
``parse_campaign`` plus the first job's build and GPU.  ``run.py`` runs
this several times, each in a new process, and reports the median.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402


def main(workload: str) -> float:
    import engine_bench as eb
    from repro.sim.gpu import GPU
    from repro.sim.nondet import JitterSource

    if workload == eb.CAMPAIGN:
        campaign = eb.campaign_spec.parse_campaign(eb.campaign_doc(1))
        spec = campaign.figures[0].jobs[0].spec
        factory, arch, config = spec.workload, spec.arch, spec.resolved_gpu()
    else:
        arch_name, wname = eb.ENGINE_WORKLOADS[workload][0]
        factory, arch = eb.FACTORIES[wname], eb.ARCHS[arch_name]
        config = eb.GPUConfig.titan_v()
    wl = factory()
    GPU(config, wl.mem, dab=arch.dab if arch.kind == "dab" else None,
        gpudet=arch.gpudet if arch.kind == "gpudet" else None,
        jitter=JitterSource(1))
    return time.perf_counter() - T0


if __name__ == "__main__":
    print(repr(main(sys.argv[1])))
