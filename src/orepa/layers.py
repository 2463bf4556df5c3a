"""Catalog of training-time linear layers expressed as convolution kernels.

Every kind materializes to a KernelTensor so the whole block stays inside
one algebra:

    conv       (Co, Ci/G, k, k)   uniform U(0, theta / sqrt(Ci/G * k * k))
    identity   (Co, Ci/G, 1, 1)   1 where co/Co == ci/Ci, else 0
    scaling    (C, 1, 1, 1)       depthwise diagonal, value m per channel
    avgpool    (C, 1, k, k)       every tap 1 / (k * k)
    freqfilter (C, 1, k, k)       cosine bases, kh-indexed for the first
                                  half of the channels, kw-indexed after
    depthwise  (C * e, 1, k, k)   groups = C, channel multiplier e
    pointwise  (Co, Ci, 1, 1)     dense 1x1

conv and identity default to trainable, avgpool and freqfilter are fixed,
scaling is trainable by default (freezable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import KernelTensor, ShapeError, _addressable, np_dtype

KINDS = ("conv", "identity1x1", "scaling", "avgpool", "freqfilter", "depthwise", "pointwise")

CHANNELWISE_KINDS = ("scaling", "avgpool", "freqfilter")

DEFAULT_THETA = math.sqrt(3.0)


@dataclass(frozen=True)
class InitRule:
    """How a kernel gets its starting values."""

    kind: str = "kaiming_uniform"
    theta: float = DEFAULT_THETA
    value: float = 1.0
    symmetric: bool = False

    def __post_init__(self):
        if self.kind not in ("kaiming_uniform", "identity", "constant", "avgpool", "dct"):
            raise ValueError(f"unknown init kind {self.kind!r}")
        if self.theta <= 0:
            raise ValueError("theta must be > 0")


def kaiming(theta=DEFAULT_THETA, symmetric=False):
    return InitRule("kaiming_uniform", theta=theta, symmetric=symmetric)


def constant(value):
    return InitRule("constant", value=value)


@dataclass(frozen=True)
class LayerSpec:
    """One degraded linear layer: kind, shape and init, no bias."""

    kind: str
    in_ch: int
    out_ch: int
    k: int = 1
    groups: int = 1
    expansion: int = 1
    init: InitRule = field(default=None)
    trainable: bool = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.in_ch < 1 or self.out_ch < 1 or self.k < 1:
            raise ShapeError("layer extents", ">= 1", (self.in_ch, self.out_ch, self.k))
        if self.kind in CHANNELWISE_KINDS and self.in_ch != self.out_ch:
            raise ShapeError("channels", f"{self.kind} is channel-wise", (self.in_ch, self.out_ch))
        if self.kind == "depthwise" and self.out_ch != self.in_ch * self.expansion:
            raise ShapeError("out_ch", self.in_ch * self.expansion, self.out_ch)
        if self.kind in ("identity1x1", "scaling", "pointwise") and self.k != 1:
            raise ShapeError("k", 1, self.k)
        if self.in_ch % self.effective_groups != 0:
            raise ShapeError("in_ch", f"divisible by groups={self.effective_groups}", self.in_ch)
        if self.out_ch % self.effective_groups != 0:
            raise ShapeError("out_ch", f"divisible by groups={self.effective_groups}", self.out_ch)
        if self.init is None:
            object.__setattr__(self, "init", _default_init(self.kind))
        if self.trainable is None:
            object.__setattr__(self, "trainable", self.kind not in ("avgpool", "freqfilter"))

    @property
    def effective_groups(self):
        if self.kind in CHANNELWISE_KINDS or self.kind == "depthwise":
            return self.in_ch
        return self.groups

    @property
    def kernel_shape(self):
        g = self.effective_groups
        return (self.out_ch, self.in_ch // g, self.k, self.k)


def _default_init(kind):
    return {
        "conv": kaiming(),
        "identity1x1": InitRule("identity"),
        "scaling": constant(1.0),
        "avgpool": InitRule("avgpool"),
        "freqfilter": InitRule("dct"),
        "depthwise": kaiming(),
        "pointwise": kaiming(),
    }[kind]


def conv(in_ch, out_ch, k, groups=1, init=None, trainable=True):
    return LayerSpec("conv", in_ch, out_ch, k=k, groups=groups, init=init, trainable=trainable)


def identity_1x1(in_ch, out_ch=None, groups=1, trainable=True):
    return LayerSpec("identity1x1", in_ch, out_ch if out_ch is not None else in_ch,
                     groups=groups, trainable=trainable)


def scaling(ch, value=1.0, trainable=True):
    return LayerSpec("scaling", ch, ch, init=constant(value), trainable=trainable)


def avg_pool(ch, k):
    return LayerSpec("avgpool", ch, ch, k=k)


def freq_filter(ch, k):
    return LayerSpec("freqfilter", ch, ch, k=k)


def depthwise(ch, k, expansion=1, init=None, trainable=True):
    return LayerSpec("depthwise", ch, ch * expansion, k=k, expansion=expansion,
                     init=init, trainable=trainable)


def pointwise(in_ch, out_ch, init=None, trainable=True):
    return LayerSpec("pointwise", in_ch, out_ch, init=init, trainable=trainable)


def materialize(spec, rng, dtype="f64"):
    """Build the kernel for a LayerSpec.

    rng is a numpy Generator or an integer seed; the result is a
    deterministic function of (spec, seed).
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    dt = np_dtype(dtype)
    co, cig, kh, kw = _addressable(spec.kernel_shape)
    g = spec.effective_groups

    if spec.init.kind == "kaiming_uniform":
        bound = spec.init.theta / math.sqrt(cig * kh * kw)
        lo = -bound if spec.init.symmetric else 0.0
        data = rng.uniform(lo, bound, size=spec.kernel_shape)
    elif spec.init.kind == "identity":
        data = np.zeros(spec.kernel_shape)
        ci_total = spec.in_ch
        for o in range(co):
            if (o * ci_total) % spec.out_ch != 0:
                continue
            ci = (o * ci_total) // spec.out_ch
            grp = o // (co // g)
            lo_ch = grp * cig
            if lo_ch <= ci < lo_ch + cig:
                data[o, ci - lo_ch, 0, 0] = 1.0
    elif spec.init.kind == "constant":
        data = np.full(spec.kernel_shape, float(spec.init.value))
    elif spec.init.kind == "avgpool":
        data = np.full(spec.kernel_shape, 1.0 / (kh * kw))
    elif spec.init.kind == "dct":
        c_idx = np.arange(co)
        half = co // 2
        a_idx = (np.arange(kh) + 0.5) * math.pi / kh
        d_idx = (np.arange(kw) + 0.5) * math.pi / kw
        row_part = np.cos(np.outer(c_idx + 1, a_idx))[:, :, None]
        col_part = np.cos(np.outer(c_idx - half + 1, d_idx))[:, None, :]
        data = np.where((c_idx < half)[:, None, None], row_part, col_part)[:, None, :, :]
        data = np.broadcast_to(data, spec.kernel_shape).copy()
    else:  # pragma: no cover
        raise ValueError(spec.init.kind)
    return KernelTensor(data.astype(dt), groups=g)


def as_dense(w):
    """Expand a grouped kernel to groups=1 by block-diagonal zero fill."""
    g = w.groups
    if g == 1:
        return w
    dense = np.zeros((w.out_channels, w.in_channels, w.kh, w.kw), dtype=w.data.dtype)
    blocks = dense.reshape(g, w.out_channels // g, g, w.in_channels_per_group, w.kh, w.kw)
    blocks[np.arange(g), :, np.arange(g)] = w.data.reshape(g, -1, *w.shape[1:])
    return KernelTensor(dense, groups=1)
