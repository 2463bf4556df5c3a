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

A branch is written as spec layer objects, the layer items of the packaged
orepa/schemas/blockspec-1.json, and `layer_specs` turns them into LayerSpecs:
spec files and the preset recipes both build through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .tensor import KernelTensor, ShapeError, _addressable, np_dtype

# The shape keys each layer kind reads from a spec layer object; it ignores
# any other shape key. A kind that reads k defaults it to the block's k,
# every other kind is 1x1.
LAYER_KEYS = {"conv": ("out_ch", "k", "groups"), "identity1x1": ("out_ch", "groups"),
              "scaling": (), "avgpool": ("k",), "freqfilter": ("k",),
              "depthwise": ("k", "expansion"), "pointwise": ("out_ch",)}
# The InitRule field each init key sets; the others keep the kind's default rule.
_INIT_FIELDS = {"init": "kind", "theta": "theta", "value": "value", "symmetric": "symmetric"}

KINDS = tuple(LAYER_KEYS)

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
            object.__setattr__(self, "init", _DEFAULT_INIT[self.kind])
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


_DEFAULT_INIT = {"conv": InitRule(), "identity1x1": InitRule("identity"),
                 "scaling": InitRule("constant"), "avgpool": InitRule("avgpool"),
                 "freqfilter": InitRule("dct"), "depthwise": InitRule(), "pointwise": InitRule()}


def layer_specs(objs, in_ch, default_k):
    """The LayerSpecs of one branch from its spec layer objects, chained from
    in_ch: a layer without out_ch keeps its width, times a depthwise
    expansion."""
    specs = []
    for obj in objs:
        kind = obj["kind"]
        reads = LAYER_KEYS.get(kind, ())
        shape = {key: obj[key] for key in reads if key in obj}
        if "k" in reads:
            shape.setdefault("k", default_k)
        # an explicit out_ch of 0 reaches LayerSpec, which refuses it
        out_ch = shape.pop("out_ch") if "out_ch" in shape else in_ch * shape.get("expansion", 1)
        spec = LayerSpec(kind, in_ch, out_ch, trainable=obj.get("trainable"), **shape)
        rule = {attr: obj[key] for key, attr in _INIT_FIELDS.items() if key in obj}
        if rule:
            spec = replace(spec, init=replace(spec.init, **rule))
        specs.append(spec)
        in_ch = spec.out_ch
    return specs


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
    else:  # "dct", the one kind left: InitRule refuses every other
        c_idx = np.arange(co)
        half = co // 2
        a_idx = (np.arange(kh) + 0.5) * math.pi / kh
        d_idx = (np.arange(kw) + 0.5) * math.pi / kw
        row_part = np.cos(np.outer(c_idx + 1, a_idx))[:, :, None]
        col_part = np.cos(np.outer(c_idx - half + 1, d_idx))[:, None, :]
        data = np.where((c_idx < half)[:, None, None], row_part, col_part)[:, None, :, :]
        data = np.broadcast_to(data, spec.kernel_shape).copy()
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


def _dense_grad_to_native(grad, kernel):
    """A grouped kernel's gradient from that of its dense expansion; a
    gradient already in the kernel's native shape passes through."""
    if grad.shape == kernel.shape:
        return grad
    g = kernel.groups
    blocks = grad.reshape(g, kernel.out_channels // g, g, -1, kernel.kh, kernel.kw)
    return blocks[np.arange(g), :, np.arange(g)].reshape(kernel.shape)
