"""Collapse a linear multi-branch block into one end-to-end kernel.

Sequential layers merge by inter-weight convolution: the composed kernel
has extent K1 + K2 - 1 and tap (m, n) sums w2[.., a, b] * w1[.., m-a, n-b]
over the second kernel's taps. The first kernel of a branch is merged in
its native grouped layout; every later one is expanded to dense first, and
the expansion dies with its merge. When either kernel is 1x1 (DBB's 1x1-kxk
sequences, a 1x1 conv before a pooling or filter layer, a depthwise kernel
before a pointwise one), every merged tap takes exactly one tap of each, so
the merge is one batched GEMM over all taps of the wider kernel, written
straight into the merged kernel. Only two kernels both wider than 1x1
(stacked kxk stems) loop over the second kernel's taps. The merge adjoint,
_merge_backward, takes both kernels native, so the fold's factors are the
branch's own kernels, and batches over chunks of the middle channels that
lie inside one group of each. It runs the merge's tap loop backward (a 1x1
second kernel is one tap), except for a 1x1 first kernel before a wider
one, whose gradients are one batched GEMM each.
Parallel branches merge by center-aligned zero embedding and tap-wise
summation, which requires odd extents. The squeeze trace and cost_report
book the dense algebra from kernel shapes alone (see _trace), whatever
layout the merges actually run in.

Evaluation convention (load-bearing for exact equality): the input is
zero-padded once by (K_e - 1) / 2 per side, where K_e is the block's
effective kernel extent, and every internal convolution is then VALID
(no further padding). Per-layer padding of intermediates would discard
receptive-field mass at the borders and break equality there. Stride is
excluded from the merge algebra and applied only to the final output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .layers import as_dense, materialize
from .tensor import (ConvGeometry, KernelTensor, ShapeError, Tensor, _centered, _embedded,
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
    if w1.dtype != w2.dtype:
        raise MergeError(f"dtype mismatch: w1 {w1.dtype}, w2 {w2.dtype}")
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


def _merge_backward(w1, w2, gout):
    """Adjoint of merge_sequential for w1 and w2 in their native grouped
    layouts, given gout, the dense merged kernel's gradient; dw1 and dw2 come
    native, and no dense expansion of w2 is made.

    Both gradients batch over chunks of s = gcd(C1 / G1, C1 / G2) middle
    channels (w1's outputs, w2's inputs), each inside one group of both
    kernels, which read the rows of gout their w2 group writes and the
    columns their w1 group reads: for a dense w2, one chunk per w1 group,
    reading every row; for a channel-wise w2, one per channel, reading its
    C2 / C1 rows. The chunks form a (u, i, r) grid, i a w2 group of the
    superblock u of lcm(C1 / G1, C1 / G2) channels and r a chunk of that
    group; when neither group size divides the other, each chunk's columns
    are gathered.

    A 1x1 w1 before a wider w2, whose taps never overlap, takes each gradient
    in one batched GEMM over all taps. Every other pair runs the merge's tap
    loop backward: w2's tap (a, b) reads the window gout[:, :, a:a + k1h,
    b:b + k1w], adds w2_tap^T @ window to dw1 and gives dw2's tap as
    window @ w1^T, one GEMM each over the chunks; a 1x1 w2 is one tap."""
    c1, c2, k1h, k1w, k2 = w1.out_channels, gout.shape[0], w1.kh, w1.kw, w2.kh * w2.kw
    cig1, cig2, cog2 = w1.in_channels_per_group, w2.in_channels_per_group, c2 // w2.groups
    s = math.gcd(c1 // w1.groups, cig2)
    a, b = c1 // w1.groups // s, cig2 // s  # coprime: chunks per w1 group, per w2 group
    u = c1 // (a * b * s)
    # d[u, i, o, j, p, ...] = gout[(u * a + i) * cog2 + o, (u * b + j) * cig1 + p, ...]
    d = np.moveaxis(np.diagonal(gout.reshape((u, a, cog2, u, b, cig1) + gout.shape[2:]),
                                axis1=0, axis2=3), -1, 0)
    if a > 1 < b:  # chunk (i, r) reads w1 group (i * b + r) // a of its superblock, not r
        d = np.take_along_axis(d, ((np.arange(a)[:, None] * b + np.arange(b)) // a).reshape(
            1, a, 1, b, 1, 1, 1), axis=3)
    w1_rows = w1.data.reshape(u, a, b, s, -1)
    w2_taps = w2.data.reshape(u, a, cog2, b, s, k2).transpose(0, 1, 3, 2, 4, 5)
    if k1h * k1w == 1 < k2:
        win = d.reshape(u, a, cog2, b, cig1, k2)
        # dw1[c, p] = sum_{o, (a, b)} w2[o, c, (a, b)] * win[o, p, (a, b)], per chunk
        # dw2[o, c, (a, b)] = sum_p w1[c, p] * win[o, p, (a, b)], per chunk and row o
        dw1 = np.matmul(w2_taps.transpose(0, 1, 2, 4, 3, 5).reshape(u, a, b, s, -1),
                        win.transpose(0, 1, 3, 2, 5, 4).reshape(u, a, b, cog2 * k2, cig1))
        dw2 = np.matmul(w1_rows.reshape(u, a, 1, b, s, cig1), win)
        return dw1.reshape(w1.shape), dw2.reshape(w2.shape)
    dw1 = np.zeros(w1_rows.shape, dtype=np.result_type(w1.data, gout))
    dw2 = np.empty((k2, u, a, cog2, b, s), dtype=dw1.dtype)  # taps first: one GEMM's out each
    for t, (ta, tb) in enumerate(np.ndindex(w2.kh, w2.kw)):
        # window[u, i, r, o, (p, m, n)] = d[u, i, o, r, p, ta + m, tb + n], a view for a 1x1 w2
        window = d[..., ta:ta + k1h, tb:tb + k1w].reshape(u, a, cog2, b, -1).transpose(
            0, 1, 3, 2, 4)
        dw1 += w2_taps[..., t].swapaxes(-1, -2) @ window
        np.matmul(window, w1_rows.swapaxes(-1, -2), out=dw2[t].transpose(0, 1, 3, 2, 4))
        del window  # freed before the next tap's copy
    return dw1.reshape(w1.shape), np.moveaxis(dw2, 0, -1).reshape(w2.shape)


def merge_parallel(kernels):
    """Sum kernels with spatial centers aligned; extents must be odd.

    Reads a non-empty iterable one kernel at a time, dropping each once it
    is added, into a running sum from zeros whose canvas grows about its
    center; every tap adds its kernels in order, so the bits are those of
    one zero canvas at the largest extents. An empty iterable raises
    MergeError."""
    acc, first, i = None, None, -1
    for k in kernels:  # not enumerate, whose cached tuple would hold the last kernel
        i += 1
        if k.kh % 2 == 0 or k.kw % 2 == 0:
            raise MergeError(f"kernel {i} has even extent {k.kh}x{k.kw}; "
                             "center alignment is undefined")
        channels = (k.out_channels, k.in_channels, k.groups)
        if acc is None:
            first, acc = channels, np.zeros(k.shape, dtype=k.data.dtype)
        elif channels != first:
            raise MergeError(f"kernel {i} channels/groups differ from kernel 0")
        elif k.data.dtype != acc.dtype:
            raise MergeError(f"kernel {i} dtype {k.dtype} differs from kernel 0's")
        elif k.kh > acc.shape[2] or k.kw > acc.shape[3]:
            acc = _embedded(acc, (max(k.kh, acc.shape[2]), max(k.kw, acc.shape[3])))
        acc[_centered(acc.shape, k.shape)] += k.data
        del k
    if acc is None:
        raise MergeError("merge_parallel needs at least one kernel")
    return KernelTensor(acc, groups=first[2])


def apply_branch_scaling(w, gamma):
    """Multiply output channel c of w by gamma[c]."""
    gamma = np.asarray(gamma, dtype=w.data.dtype)
    if gamma.shape != (w.out_channels,):
        raise ShapeError("gamma", (w.out_channels,), gamma.shape)
    return KernelTensor(w.data * gamma[:, None, None, None], groups=w.groups)


def _fold(branch, folds):
    """Left-fold a branch's layers, scaling aside, into the dense kernel it
    returns; folds receives its prefix products (the first layer in its native
    grouped layout, see merge_sequential, then each merge), the last expanded
    to dense. The factors are the branch's own native kernels, which
    _merge_backward takes as they are: a later layer's dense expansion feeds
    its merge alone."""
    prefix = [branch.weights[0]]
    for w in branch.weights[1:]:
        prefix.append(merge_sequential(prefix[-1], as_dense(w)))
    prefix[-1] = as_dense(prefix[-1])
    folds.append(prefix)
    return prefix[-1]


def _squeeze(block, folds=None):
    """W_e: each branch's fold (see _fold), scaled, then merged center-aligned
    by merge_parallel, which reads one scaled fold at a time."""

    def kernels():
        for branch in block.branches:
            # a fold not kept is freed before its scaled copy is made
            k = _fold(branch, [] if folds is None else folds)
            if branch.scaling is not None:
                k = apply_branch_scaling(k, branch.scaling)
            yield k
            del k  # added to the running sum; freed before the next fold

    if len(block.branches) == 1:
        return next(kernels())
    return merge_parallel(kernels())


def _trace(block):
    """The squeeze's dense algebra, walked over kernel shapes alone: per
    branch, each grouped layer expanded (as_dense), each later layer merged
    into the dense fold before it at one multiply per (its tap) x (fold
    element) pair, then the scaling at one per fold element; two or more
    branches end in merge_parallel. _fold merges grouped layers natively."""
    trace, shapes = [], []
    for branch in block.branches:
        fold = None
        for w in branch.weights:
            dense = (w.out_channels, w.in_channels, w.kh, w.kw)
            if w.groups != 1:
                trace.append(TraceStep("as_dense", (w.shape,), dense, 0))
            if fold is not None:
                merged = (w.out_channels, fold[1], fold[2] + w.kh - 1, fold[3] + w.kw - 1)
                trace.append(TraceStep("merge_sequential", (fold, dense), merged,
                                       w.out_channels * w.kh * w.kw * math.prod(fold)))
            fold = dense if fold is None else merged
        if branch.scaling is not None:
            trace.append(TraceStep("scale", (fold, branch.scaling.shape), fold, math.prod(fold)))
        shapes.append(fold)
    if len(shapes) > 1:
        trace.append(TraceStep("merge_parallel", tuple(shapes),
                               (block.out_ch, block.in_ch) + block.effective_k, 0))
    return trace


def squeeze_branch(branch, trace=None):
    """A branch's fold (see _fold) as one dense kernel, then scaled; a given
    trace list is extended by its _trace steps."""
    if trace is not None:
        trace.extend(_trace(BlockGraph([branch])))
    return _squeeze(BlockGraph([branch]))


def squeeze_block(block):
    """Fold every branch, then merge branches center-aligned; see _trace."""
    kernel = _squeeze(block)
    return SqueezeResult(kernel=kernel, effective_k=(kernel.kh, kernel.kw), trace=_trace(block))


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
    """The expanded route's prologue: the center-alignment check and the
    single outer padding, K_e - 1 per axis, so that every unstrided output
    keeps x's extents. conv2d_direct checks x's channels."""
    check_center_alignable(block)
    return pad_spatial(x, *block.eval_geometry().padding)


def _output_hw(block, hw):
    """The extents of the block's strided output on an input of extents hw."""
    return tuple((e - 1) // s + 1 for e, s in zip(hw, block.output_geometry.stride))


def expanded_forward(block, x):
    """Evaluate the block layer by layer under single outer padding, one
    branch at a time into sum_over's running sum."""
    xp = _expanded_input(block, x)
    valid = ConvGeometry()

    def branch_outputs():
        for branch in block.branches:
            a = xp
            for w in branch.weights:
                a = conv2d_direct(a, w, valid)
            if branch.scaling is not None:
                a = scale_by_channel(a, branch.scaling)
            yield Tensor(a.data[_centered(a.shape, x.shape)])

    y = sum_over(branch_outputs())
    s_h, s_w = block.output_geometry.stride
    if (s_h, s_w) != (1, 1):
        y = Tensor(y.data[..., ::s_h, ::s_w])
    return y


def block_forward_squeezed(block, x):
    """conv2d_direct with the squeezed kernel under the block's geometry;
    no trace is booked."""
    return conv2d_direct(x, _squeeze(block), block.eval_geometry())


def cost_report(block, feature_hw, batch):
    """Analytic buffers and multiply counts for both training routes.

    Offline counts every feature map produced while evaluating the
    expanded block (layer outputs and scaled branch outputs) except the
    block's final output, plus per-layer convolution multiplies at the
    full H x W resolution. Online counts the kernel-space buffers and
    multiplies _trace books from kernel shapes, plus the single output
    convolution. No kernel or wall clock is involved.
    """
    h, w = feature_hw
    h_out, w_out = _output_hw(block, feature_hw)

    off_buf = 0
    off_mults = 0
    for branch in block.branches:
        for kern in branch.weights:
            off_buf += batch * kern.out_channels * h * w
            off_mults += (batch * h * w * kern.out_channels *
                          kern.in_channels_per_group * kern.kh * kern.kw)
        if branch.scaling is not None:
            off_buf += batch * branch.out_ch * h * w
            off_mults += batch * branch.out_ch * h * w
    if len(block.branches) == 1:
        # the single branch's last map is the block output, not an extra buffer
        off_buf -= batch * block.out_ch * h * w

    check_center_alignable(block)
    trace = _trace(block)
    on_buf = sum(math.prod(step.output) for step in trace)
    on_mults = sum(step.mults for step in trace)
    keh, kew = block.effective_k
    on_mults += batch * h_out * w_out * block.out_ch * block.in_ch * keh * kew

    return {
        "offline": {"buffer_elems": int(off_buf), "mults": int(off_mults)},
        "online": {"buffer_elems": int(on_buf), "mults": int(on_mults)},
    }
