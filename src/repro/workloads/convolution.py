"""Backward-filter convolution shaped like cuDNN Algorithm 0 (Table III).

The paper evaluates backward-filter convolutions of ResNet building
blocks (cuDNN 7.1, Algorithm 0): the non-deterministic algorithm that
accumulates weight gradients with f32 atomics.  Its structure
(Section IV-E): the filter is partitioned into ``G`` even regions and
``M * G`` CTAs are launched; the ``M`` CTAs whose ids are congruent
modulo ``G`` atomically add into the *same* region with the *same*
access pattern — the property behind the atomic-fusion and SM-gating
results (Figs 13, 14) and the offset-flushing result for the expanding
1x1 layers where every CTA writes the same addresses (cnv*_3, Fig 16).

Our kernel keeps that structure at recorded reduced scale: each thread
owns one filter element of its CTA's region, accumulates a dot product
over the CTA's input/gradient slice with real FMAs, synchronizes with
``bar.sync`` (cuDNN's algorithm uses shared-memory tiling barriers —
the barrier exercises DAB's flush-on-fence path), then issues one
``red.global.add.f32`` into the weight-gradient buffer.

Table III layer configurations (paper values) are in ``RESNET_LAYERS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.arch.isa import assemble
from repro.arch.kernel import Kernel
from repro.memory.globalmem import GlobalMemory
from repro.workloads import Workload


@dataclass(frozen=True)
class ConvLayer:
    """One Table III ResNet layer: paper dims + scaled simulation dims."""

    name: str
    # Paper-scale facts (Table III, batch 16, ImageNet).
    paper_input: str
    paper_output: str
    paper_filter: str
    paper_atomics_pki: float
    # Scaled simulation parameters.
    k: int              # scaled output channels
    c: int              # scaled input channels
    r: int              # filter height
    s: int              # filter width
    regions: int        # G: filter partitioned into G even regions
    slices: int         # M: CTAs per region
    slice_len: int      # dot-product length per thread

    @property
    def filter_elems(self) -> int:
        return self.k * self.c * self.r * self.s

    @property
    def felems_per_region(self) -> int:
        if self.filter_elems % self.regions:
            raise ValueError(f"{self.name}: regions must divide filter elements")
        return self.filter_elems // self.regions

    @property
    def grid_dim(self) -> int:
        return self.slices * self.regions

    @property
    def cta_dim(self) -> int:
        return min(256, -(-self.felems_per_region // 32) * 32)


RESNET_LAYERS: Dict[str, ConvLayer] = {
    # 1x1 "squeeze" layers.
    "cnv2_1": ConvLayer("cnv2_1", "256x56x56", "64x56x56", "64x256x1x1", 1.08,
                        k=8, c=16, r=1, s=1, regions=2, slices=12, slice_len=4),
    "cnv3_1": ConvLayer("cnv3_1", "512x28x28", "128x28x28", "128x512x1x1", 1.70,
                        k=8, c=16, r=1, s=1, regions=2, slices=10, slice_len=6),
    "cnv4_1": ConvLayer("cnv4_1", "1024x14x14", "256x14x14", "256x1024x1x1", 3.74,
                        k=8, c=16, r=1, s=1, regions=2, slices=14, slice_len=4),
    # 3x3 layers: G=18 regions, the paper's fusion-misalignment case.
    "cnv2_2": ConvLayer("cnv2_2", "64x56x56", "64x56x56", "64x64x3x3", 1.09,
                        k=4, c=4, r=3, s=3, regions=18, slices=4, slice_len=4),
    "cnv3_2": ConvLayer("cnv3_2", "128x28x28", "128x28x28", "128x128x3x3", 1.70,
                        k=4, c=4, r=3, s=3, regions=18, slices=5, slice_len=6),
    "cnv4_2": ConvLayer("cnv4_2", "256x14x14", "256x14x14", "256x256x3x3", 3.75,
                        k=4, c=4, r=3, s=3, regions=18, slices=6, slice_len=4),
    # 1x1 "expand" layers: one region -> every CTA hits the same
    # addresses (the cnv2_3 congestion case of Fig 16).
    "cnv2_3": ConvLayer("cnv2_3", "64x56x56", "256x56x56", "256x64x1x1", 1.72,
                        k=8, c=16, r=1, s=1, regions=1, slices=16, slice_len=4),
    "cnv3_3": ConvLayer("cnv3_3", "128x28x28", "512x28x28", "512x128x1x1", 1.96,
                        k=8, c=16, r=1, s=1, regions=4, slices=8, slice_len=4),
    "cnv4_3": ConvLayer("cnv4_3", "256x14x14", "1024x14x14", "1024x256x1x1", 3.74,
                        k=16, c=16, r=1, s=1, regions=4, slices=6, slice_len=4),
}

CONV_LAYER_NAMES = tuple(RESNET_LAYERS)

#: Fig 14 "gating" variants of the 3x3 layers: four warps per CTA (128
#: filter elements per region), so warp *w* of every CTA lands on
#: scheduler *w* and same-region CTAs that share an SM share buffers.
#: On the full 8-SM machine, same-region CTAs (ids congruent mod 18)
#: never share an SM (lcm(8,18)=72 > grid); gated to 6 SMs they do
#: (lcm(6,18)=18), exposing atomic fusion — the paper's Fig 14 effect.
GATING_LAYERS: Dict[str, ConvLayer] = {
    "cnv2_2g": ConvLayer("cnv2_2g", "64x56x56", "64x56x56", "64x64x3x3", 1.09,
                         k=8, c=32, r=3, s=3, regions=18, slices=2, slice_len=4),
    "cnv3_2g": ConvLayer("cnv3_2g", "128x28x28", "128x28x28", "128x128x3x3", 1.70,
                         k=8, c=32, r=3, s=3, regions=18, slices=2, slice_len=6),
    "cnv4_2g": ConvLayer("cnv4_2g", "256x14x14", "256x14x14", "256x256x3x3", 3.75,
                         k=8, c=32, r=3, s=3, regions=18, slices=3, slice_len=4),
}

_CONV_PROG = assemble("""
    mov.s32 r_t, %tid
    rem.s32 r_g, %ctaid, c_G
    div.s32 r_slice, %ctaid, c_G
    setp.lt.s32 p_has, r_t, c_fpr
    // clamp the filter-element index so spare threads read safely
    mov.s32 r_fmax, c_fpr
    sub.s32 r_fmax, r_fmax, 1
    min.s32 r_fl, r_t, r_fmax
    mad.s32 r_fg, r_g, c_fpr, r_fl
    div.s32 r_k, r_fg, c_crs
    rem.s32 r_r1, r_fg, c_crs
    div.s32 r_c, r_r1, c_rs
    mul.s32 r_xi, r_c, c_msl
    mad.s32 r_xi, r_slice, c_sl, r_xi
    shl.s32 r_xa, r_xi, 2
    add.s32 r_xa, r_xa, c_x
    mul.s32 r_yi, r_k, c_msl
    mad.s32 r_yi, r_slice, c_sl, r_yi
    shl.s32 r_ya, r_yi, 2
    add.s32 r_ya, r_ya, c_dy
    mov.f32 r_acc, 0.0
    mov.s32 r_j, 0
JLOOP:
    setp.ge.s32 p_jdone, r_j, c_sl
@p_jdone bra JEND
    ld.global.f32 r_xv, [r_xa]
    ld.global.f32 r_yv, [r_ya]
    fma.f32 r_acc, r_xv, r_yv, r_acc
    add.s32 r_xa, r_xa, 4
    add.s32 r_ya, r_ya, 4
    add.s32 r_j, r_j, 1
    bra JLOOP
JEND:
    bar.sync
    shl.s32 r_wo, r_fg, 2
    add.s32 r_wa, c_dw, r_wo
@p_has red.global.add.f32 [r_wa], r_acc
    exit
""")


def conv_reference(layer: ConvLayer, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Float64 reference dW for the simulated index math.

    Filter element ``fg`` of output channel ``k`` and input channel
    ``c`` is the dot product of channel ``k``'s gradient block with
    channel ``c``'s input block over every slice; the (k, c) products
    are one contraction.
    """
    blocks = (layer.slices, layer.slice_len)
    xs = x.astype(np.float64).reshape(layer.c, *blocks)
    dys = dy.astype(np.float64).reshape(layer.k, *blocks)
    dots = np.einsum("ksj,csj->kc", dys, xs)
    crs = layer.c * layer.r * layer.s
    fg = np.arange(layer.filter_elems)
    return dots[fg // crs, fg % crs // (layer.r * layer.s)]


def build_conv(layer: str = "cnv2_1", seed: int = 7) -> Workload:
    """Backward-filter convolution for one Table III layer."""
    if isinstance(layer, str):
        cfg = RESNET_LAYERS.get(layer) or GATING_LAYERS.get(layer)
        if cfg is None:
            raise ValueError(
                f"unknown layer {layer!r}; choose from "
                f"{CONV_LAYER_NAMES + tuple(GATING_LAYERS)}"
            )
    else:
        cfg = layer
    rng = np.random.default_rng(seed)
    msl = cfg.slices * cfg.slice_len
    x = rng.standard_normal(cfg.c * msl).astype(np.float32)
    dy = rng.standard_normal(cfg.k * msl).astype(np.float32)

    mem = GlobalMemory()
    b_x = mem.alloc("x", len(x), "f32", init=x)
    b_dy = mem.alloc("dy", len(dy), "f32", init=dy)
    b_dw = mem.alloc("dw", cfg.filter_elems, "f32")

    kernel = Kernel(
        f"conv_bwdfilter_{cfg.name}",
        _CONV_PROG,
        grid_dim=cfg.grid_dim,
        cta_dim=cfg.cta_dim,
        params={
            "c_G": cfg.regions,
            "c_fpr": cfg.felems_per_region,
            "c_crs": cfg.c * cfg.r * cfg.s,
            "c_rs": cfg.r * cfg.s,
            "c_sl": cfg.slice_len,
            "c_msl": msl,
            "c_x": b_x,
            "c_dy": b_dy,
            "c_dw": b_dw,
        },
    )
    return Workload(
        name=f"conv_{cfg.name}",
        mem=mem,
        kernels=[kernel],
        outputs=["dw"],
        info={
            "layer": cfg.name,
            "paper_filter": cfg.paper_filter,
            "paper_atomics_pki": cfg.paper_atomics_pki,
            "filter_elems": cfg.filter_elems,
            "regions": cfg.regions,
            "ctas": cfg.grid_dim,
            "reference_f64": conv_reference(cfg, x, dy),
        },
    )
