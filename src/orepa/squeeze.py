"""Collapse a linear multi-branch block into one end-to-end kernel.

Sequential layers merge by inter-weight convolution: the composed kernel
has extent K1 + K2 - 1 and tap (m, n) sums w2[.., a, b] * w1[.., m-a, n-b]
over the second kernel's taps. The first kernel of a branch is merged in
its native grouped layout; every later one is expanded to dense first.
When either kernel is 1x1 (DBB's 1x1-kxk sequences, a 1x1 conv before a
pooling or filter layer, a depthwise kernel before a pointwise one), every
merged tap takes exactly one tap of each, so the merge is one batched GEMM
over all taps of the wider kernel, written straight into the merged
kernel, and dynamics._merge_backward takes each gradient in one batched
GEMM as well. Only two kernels both wider than 1x1 (stacked kxk stems)
keep a loop over the second kernel's taps, and their adjoint correlates.
Parallel branches merge by center-aligned zero embedding and tap-wise
summation, which requires odd extents. The squeeze trace and cost_report
model the dense algebra (every grouped layer expanded, then merged),
whatever layout the merges actually run in.

Evaluation convention (load-bearing for exact equality): the input is
zero-padded once by (K_e - 1) / 2 per side, where K_e is the block's
effective kernel extent, and every internal convolution is then VALID
(no further padding). Per-layer padding of intermediates would discard
receptive-field mass at the borders and break equality there. Stride is
excluded from the merge algebra and applied only to the final output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import as_dense, materialize
from .tensor import (ConvGeometry, KernelTensor, ShapeError, Tensor, _centered,
                     conv2d_direct, pad_spatial, same_padding, scale_by_channel,
                     sum_over)


class MergeError(ValueError):
    """A kernel merge violates the dense/odd/channel-chaining rules."""


@dataclass
class Branch:
    """One sequence of layers plus an optional trailing channel scaling."""

    layers: list
    weights: list
    scaling: np.ndarray = None
    scaling_trainable: bool = True
    name: str = ""

    def __post_init__(self):
        if len(self.layers) != len(self.weights) or not self.layers:
            raise ShapeError("branch", "one weight per layer, at least one layer", len(self.layers))
        for i in range(1, len(self.weights)):
            if self.weights[i].in_channels != self.weights[i - 1].out_channels:
                raise ShapeError(f"branch layer {i} in_channels",
                                 self.weights[i - 1].out_channels,
                                 self.weights[i].in_channels)
        if self.scaling is not None:
            self.scaling = np.asarray(self.scaling, dtype=self.weights[-1].data.dtype)
            if self.scaling.shape != (self.out_ch,):
                raise ShapeError("scaling", (self.out_ch,), self.scaling.shape)

    @property
    def in_ch(self):
        return self.weights[0].in_channels

    @property
    def out_ch(self):
        return self.weights[-1].out_channels

    @property
    def effective_k(self):
        kh = 1 + sum(w.kh - 1 for w in self.weights)
        kw = 1 + sum(w.kw - 1 for w in self.weights)
        return kh, kw


@dataclass
class BlockGraph:
    """Parallel branches and output geometry.

    Only the geometry's stride is honored when evaluating the block; the
    padding used for block evaluation is pinned to (K_e - 1) / 2 per side
    by the single-outer-padding convention above.
    """

    branches: list
    output_geometry: ConvGeometry = field(default_factory=ConvGeometry)

    def __post_init__(self):
        if not self.branches:
            raise ShapeError("branches", ">= 1", 0)
        first = self.branches[0]
        for b in self.branches:
            if (b.in_ch, b.out_ch) != (first.in_ch, first.out_ch):
                raise ShapeError("branch channels", (first.in_ch, first.out_ch),
                                 (b.in_ch, b.out_ch))

    @property
    def in_ch(self):
        return self.branches[0].in_ch

    @property
    def out_ch(self):
        return self.branches[0].out_ch

    @property
    def dtype(self):
        return self.branches[0].weights[0].dtype

    @property
    def effective_k(self):
        ks = [b.effective_k for b in self.branches]
        return max(k[0] for k in ks), max(k[1] for k in ks)

    def eval_geometry(self):
        """Same-padded geometry at the block's effective extent plus its stride."""
        return same_padding(*self.effective_k, self.output_geometry.stride)


def build_branch(layer_specs, rng, dtype="f64", scaling=None, name="",
                 scaling_trainable=True):
    """Materialize a branch's kernels in layer order from one generator."""
    weights = [materialize(spec, rng, dtype=dtype) for spec in layer_specs]
    return Branch(layers=list(layer_specs), weights=weights, scaling=scaling,
                  scaling_trainable=scaling_trainable, name=name)


@dataclass(frozen=True)
class TraceStep:
    op: str
    inputs: tuple
    output: tuple
    mults: int

    @property
    def buffer_elems(self):
        return int(np.prod(self.output))

    def to_dict(self, step):
        return {"step": step, "op": self.op,
                "shapes": {"inputs": [list(s) for s in self.inputs],
                           "output": list(self.output)},
                "mults": self.mults}


@dataclass
class SqueezeResult:
    kernel: KernelTensor
    effective_k: tuple
    trace: list

    def trace_json_lines(self):
        import json

        return "\n".join(json.dumps(s.to_dict(i), sort_keys=True)
                         for i, s in enumerate(self.trace))


def merge_sequential(w1, w2):
    """Compose two stacked kernels into one dense kernel (w1 applied first).

    w1 may be grouped and stays in its native (C1, C0 / G, k, k) layout:
    every product is batched over w1's G groups and lands in the input
    channels of its group, so no block-diagonal copy of w1 is made. w2
    must be dense. When either kernel is 1x1, every merged tap takes
    exactly one pair of taps, so all taps are contracted at once: one
    batched GEMM written straight into the merged kernel, over G for a
    1x1 w2 and over (C2, G) for a 1x1 w1. Only when both are wider do taps
    overlap; then each w2 tap is one batched GEMM added into its window.
    """
    if w2.groups != 1:
        raise MergeError("sequential merge needs a dense second kernel; expand its groups first")
    if w2.in_channels != w1.out_channels:
        raise MergeError(f"channel chain mismatch: w1 out {w1.out_channels}, "
                         f"w2 in {w2.in_channels}")
    c1, cig, k1h, k1w = w1.shape
    g, c2, cog = w1.groups, w2.out_channels, c1 // w1.groups
    keh, kew = k1h + w2.kh - 1, k1w + w2.kw - 1
    out = np.zeros((c2, w1.in_channels, keh, kew), dtype=w1.data.dtype)
    w1_rows = w1.data.reshape(g, cog, -1)
    w2_taps = w2.data.reshape(c2, g, cog, -1)
    if w2.kh == w2.kw == 1:
        # out[o, g, (p, i, j)] = sum_c w2[o, g, c] * w1[g, c, (p, i, j)]
        np.matmul(w2_taps[..., 0].transpose(1, 0, 2), w1_rows,
                  out=out.reshape(c2, g, -1).transpose(1, 0, 2))
    elif k1h == k1w == 1:
        # out[o, g, p, (a, b)] = sum_c w1[g, c, p] * w2[o, g, c, (a, b)]
        np.matmul(w1_rows.transpose(0, 2, 1), w2_taps, out=out.reshape(c2, g, cig, -1))
    else:
        out_g = out.reshape(c2, g, cig, keh, kew).transpose(1, 0, 2, 3, 4)
        for a in range(w2.kh):
            for b in range(w2.kw):
                w2_tap = w2_taps[..., a * w2.kw + b].transpose(1, 0, 2)
                out_g[..., a:a + k1h, b:b + k1w] += (w2_tap @ w1_rows).reshape(
                    g, c2, cig, k1h, k1w)
    return KernelTensor(out, groups=1)


def merge_parallel(kernels):
    """Sum kernels with spatial centers aligned; extents must be odd."""
    kernels = list(kernels)
    first = kernels[0]
    for i, k in enumerate(kernels):
        if k.kh % 2 == 0 or k.kw % 2 == 0:
            raise MergeError(f"kernel {i} has even extent {k.kh}x{k.kw}; "
                             "center alignment is undefined")
        if (k.out_channels, k.in_channels, k.groups) != (
                first.out_channels, first.in_channels, first.groups):
            raise MergeError(f"kernel {i} channels/groups differ from kernel 0")
    keh = max(k.kh for k in kernels)
    kew = max(k.kw for k in kernels)
    out = np.zeros((first.out_channels, first.in_channels_per_group, keh, kew),
                   dtype=first.data.dtype)
    for k in kernels:
        out[_centered(out.shape, k.shape)] += k.data
    return KernelTensor(out, groups=first.groups)


def apply_branch_scaling(w, gamma):
    """Multiply output channel c of w by gamma[c]."""
    gamma = np.asarray(gamma, dtype=w.data.dtype)
    if gamma.shape != (w.out_channels,):
        raise ShapeError("gamma", (w.out_channels,), gamma.shape)
    return KernelTensor(w.data * gamma[:, None, None, None], groups=w.groups)


def _seq_merge_mults(w1, w2):
    # one multiply per (w2 tap) x (w1 element) pair of the dense algebra,
    # whatever w1's groups
    return (w2.out_channels * w2.kh * w2.kw *
            w1.out_channels * w1.in_channels * w1.kh * w1.kw)


def _dense_shape(w):
    return (w.out_channels, w.in_channels, w.kh, w.kw)


def _fold(branch, trace, folds):
    """Left-fold a branch's layers, scaling aside, into the dense kernel it
    returns; folds receives the factors (the first layer in its native grouped
    layout, see merge_sequential, every later one dense) and their prefix
    products, the last expanded to dense. The trace records the dense algebra
    all the same: every grouped layer is expanded, then merged."""
    k = branch.weights[0]
    if k.groups != 1:
        trace.append(TraceStep("as_dense", (k.shape,), _dense_shape(k), 0))
    factors, prefix = [k], [k]
    for w in branch.weights[1:]:
        dense = as_dense(w)
        if dense is not w:
            trace.append(TraceStep("as_dense", (w.shape,), dense.shape, 0))
        merged = merge_sequential(prefix[-1], dense)
        trace.append(TraceStep("merge_sequential", (_dense_shape(prefix[-1]), dense.shape),
                               merged.shape, _seq_merge_mults(prefix[-1], dense)))
        factors.append(dense)
        prefix.append(merged)
    prefix[-1] = as_dense(prefix[-1])
    folds.append((factors, prefix))
    return prefix[-1]


def _squeeze(block, trace, folds=None):
    """W_e: each branch's fold (see _fold), scaled, then merged center-aligned."""
    kernels = []
    for branch in block.branches:
        # a fold not kept is freed before its scaled copy is made
        k = _fold(branch, trace, [] if folds is None else folds)
        if branch.scaling is not None:
            k = apply_branch_scaling(k, branch.scaling)
            trace.append(TraceStep("scale", (k.shape, branch.scaling.shape), k.shape, k.data.size))
        kernels.append(k)
    if len(kernels) == 1:
        return kernels[0]
    w_e = merge_parallel(kernels)
    trace.append(TraceStep("merge_parallel", tuple(k.shape for k in kernels), w_e.shape, 0))
    return w_e


def squeeze_branch(branch, trace=None):
    """A branch's fold (see _fold) as one dense kernel, then scaled."""
    return _squeeze(BlockGraph([branch]), [] if trace is None else trace)


def squeeze_block(block):
    """Fold every branch, then merge branches center-aligned."""
    trace = []
    kernel = _squeeze(block, trace)
    return SqueezeResult(kernel=kernel, effective_k=(kernel.kh, kernel.kw), trace=trace)


def check_center_alignable(block):
    """Multi-branch blocks need odd per-branch extents to align centers."""
    if len(block.branches) == 1:
        return
    for i, b in enumerate(block.branches):
        kb_h, kb_w = b.effective_k
        if kb_h % 2 == 0 or kb_w % 2 == 0:
            raise MergeError(f"branch {i} has even effective extent "
                             f"{kb_h}x{kb_w}; center alignment is undefined")


def _expanded_input(block, x):
    """The expanded route's prologue: channel and center-alignment checks,
    the single outer padding, and the unstrided output extents."""
    if x.channels != block.in_ch:
        raise ShapeError("channels", block.in_ch, x.channels)
    check_center_alignable(block)
    xp = pad_spatial(x, *block.eval_geometry().padding)
    keh, kew = block.effective_k
    out_hw = (xp.shape[-2] - keh + 1, xp.shape[-1] - kew + 1)
    if min(out_hw) < 1:
        raise ShapeError("spatial", f">= effective kernel {keh}x{kew}", xp.shape[-2:])
    return xp, out_hw


def expanded_forward(block, x):
    """Evaluate the block layer by layer under single outer padding."""
    xp, out_hw = _expanded_input(block, x)
    valid = ConvGeometry()
    outs = []
    for branch in block.branches:
        a = xp
        for w in branch.weights:
            a = conv2d_direct(a, w, valid)
        if branch.scaling is not None:
            a = scale_by_channel(a, branch.scaling)
        outs.append(Tensor(a.data[_centered(a.shape, out_hw)]))
    y = sum_over(outs)
    s_h, s_w = block.output_geometry.stride
    if (s_h, s_w) != (1, 1):
        y = Tensor(y.data[..., ::s_h, ::s_w])
    return y


def block_forward_squeezed(block, x):
    """conv2d_direct with the squeezed kernel under the block's geometry."""
    return conv2d_direct(x, squeeze_block(block).kernel, block.eval_geometry())


def cost_report(block, feature_hw, batch):
    """Analytic buffers and multiply counts for both training routes.

    Offline counts every feature map produced while evaluating the
    expanded block (layer outputs and scaled branch outputs) except the
    block's final output, plus per-layer convolution multiplies at the
    full H x W resolution. Online counts the kernel-space buffers and
    multiplies recorded in the squeeze trace, plus the single output
    convolution. No wall clock is involved.
    """
    h, w = feature_hw
    s_h, s_w = block.output_geometry.stride
    h_out = (h - 1) // s_h + 1
    w_out = (w - 1) // s_w + 1

    off_buf = 0
    off_mults = 0
    for branch in block.branches:
        maps = []
        for spec, kern in zip(branch.layers, branch.weights):
            maps.append(batch * kern.out_channels * h * w)
            off_mults += (batch * h * w * kern.out_channels *
                          kern.in_channels_per_group * kern.kh * kern.kw)
        if branch.scaling is not None:
            maps.append(batch * branch.out_ch * h * w)
            off_mults += batch * branch.out_ch * h * w
        off_buf += sum(maps)
    if len(block.branches) == 1:
        # the single branch's last map is the block output, not an extra buffer
        last = block.branches[0]
        off_buf -= batch * last.out_ch * h * w

    result = squeeze_block(block)
    on_buf = sum(step.buffer_elems for step in result.trace)
    on_mults = sum(step.mults for step in result.trace)
    keh, kew = result.effective_k
    on_mults += batch * h_out * w_out * block.out_ch * block.in_ch * keh * kew

    return {
        "offline": {"buffer_elems": int(off_buf), "mults": int(off_mults)},
        "online": {"buffer_elems": int(on_buf), "mults": int(on_mults)},
    }
