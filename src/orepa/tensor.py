"""Dense NCHW tensors, convolution geometry, and a direct 2-d convolution.

Convolution here is cross-correlation (no kernel flip), the deep-learning
convention. With symmetric "same" padding the output pixel at (h, w) reads
the input window centered at (h, w), i.e. taps are offset by
k - floor((K - 1) / 2) along each spatial axis.

Two private kernels carry every convolution over feature maps: _correlate,
a VALID strided grouped cross-correlation, and its weight adjoint
_correlate_grad_w. conv2d_direct pads x and correlates.

Both run in blocks of batch items or of groups (_blocks) whose working
buffers fit _CACHE_BUDGET bytes, so a large map is not streamed through
memory once per tap; a small map is one block. The buffers are allocated
per call; none outlives one. The forward is one GEMM over copies of tap
windows: per block for a channel-wise layout (one input channel per
group), and per tile of output rows, fixed by the layer shape, for a
dense or grouped one. Every output element of the forward is then the
same arithmetic whatever the blocks, so it keeps its bits. The weight
adjoint is one GEMM per tap and sums items and positions block by block.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

_DTYPES = {"f32": np.float32, "f64": np.float64}

# bytes of working buffers per block of a correlation's tap loop:
# half of a 2 MiB per-core L2, so the input rows a tap reads fit beside them
_CACHE_BUDGET = 1 << 20


class ShapeError(ValueError):
    """Operand extents are incompatible along a named axis."""

    def __init__(self, axis, expected, got):
        self.axis = axis
        self.expected = expected
        self.got = got
        super().__init__(f"axis {axis!r}: expected {expected}, got {got}")


def np_dtype(name):
    if name not in _DTYPES:
        raise ValueError(f"unsupported dtype {name!r}, expected one of {sorted(_DTYPES)}")
    return np.dtype(_DTYPES[name])


def _addressable(shape):
    """shape, if an f64 array of it fits numpy's index range. numpy refuses
    a larger one with a ValueError; it is raised here as the MemoryError it is."""
    if math.prod(shape) * 8 > sys.maxsize:
        raise MemoryError(f"an array of shape {tuple(shape)} exceeds the address space")
    return shape


def dtype_name(dt):
    dt = np.dtype(dt)
    for name, cand in _DTYPES.items():
        if np.dtype(cand) == dt:
            return name
    raise ValueError(f"unsupported numpy dtype {dt}")


def _checked_array(data, dtype, ranks):
    """data as an f32/f64 array of one of the allowed ranks with every
    extent >= 1; non-float input becomes f64 unless a dtype name is given."""
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(np_dtype(dtype), copy=False)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    if arr.ndim not in ranks:
        raise ShapeError("rank", " or ".join(map(str, ranks)) if len(ranks) > 1 else ranks[0],
                         arr.ndim)
    if any(e < 1 for e in arr.shape):
        raise ShapeError("extents", ">= 1", arr.shape)
    return arr


def _freeze(arr):
    arr = np.ascontiguousarray(arr)
    dtype_name(arr.dtype)
    arr.setflags(write=False)
    return arr


class Tensor:
    """Immutable dense feature tensor, rank 3 (C, H, W) or rank 4 (B, C, H, W)."""

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        self.data = _freeze(_checked_array(data, dtype, (3, 4)))

    @property
    def shape(self):
        return tuple(self.data.shape)

    @property
    def dtype(self):
        return dtype_name(self.data.dtype)

    @property
    def rank(self):
        return self.data.ndim

    @property
    def channels(self):
        return self.data.shape[-3]

    def astype(self, dtype):
        return Tensor(self.data.astype(np_dtype(dtype)))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


class KernelTensor:
    """Convolution weight in (Co, Ci // G, kH, kW) layout with a group count."""

    __slots__ = ("data", "groups")

    def __init__(self, data, groups=1, dtype=None):
        arr = _checked_array(data, dtype, (4,))
        if groups < 1 or arr.shape[0] % groups != 0:
            raise ShapeError("out_channels", f"divisible by groups={groups}", arr.shape[0])
        self.data = _freeze(arr)
        self.groups = int(groups)

    @property
    def out_channels(self):
        return self.data.shape[0]

    @property
    def in_channels_per_group(self):
        return self.data.shape[1]

    @property
    def in_channels(self):
        return self.data.shape[1] * self.groups

    @property
    def kh(self):
        return self.data.shape[2]

    @property
    def kw(self):
        return self.data.shape[3]

    @property
    def shape(self):
        return tuple(self.data.shape)

    @property
    def dtype(self):
        return dtype_name(self.data.dtype)

    def astype(self, dtype):
        return KernelTensor(self.data.astype(np_dtype(dtype)), groups=self.groups)

    def __repr__(self):
        return f"KernelTensor(shape={self.shape}, groups={self.groups}, dtype={self.dtype})"


@dataclass(frozen=True)
class ConvGeometry:
    """Stride and zero padding for one convolution. Dilation is fixed to 1.

    padding is (top, bottom, left, right).
    """

    stride: tuple = (1, 1)
    padding: tuple = (0, 0, 0, 0)

    def __post_init__(self):
        if len(self.stride) != 2 or any(s < 1 for s in self.stride):
            raise ShapeError("stride", ">= 1 pair", self.stride)
        if len(self.padding) != 4 or any(p < 0 for p in self.padding):
            raise ShapeError("padding", ">= 0 quadruple", self.padding)


def same_padding(kh, kw, stride=(1, 1)):
    """Center-aligned padding of total (K - 1) per axis; floor bias goes top-left."""
    p_t = (kh - 1) // 2
    p_l = (kw - 1) // 2
    return ConvGeometry(stride=tuple(stride), padding=(p_t, kh - 1 - p_t, p_l, kw - 1 - p_l))


def _batched(x):
    """x, a Tensor or an array, as a rank-4 array, and whether a batch axis was added."""
    arr = x.data if isinstance(x, Tensor) else np.asarray(x)
    return (arr[None], True) if arr.ndim == 3 else (arr, False)


def _restore(arr, squeezed):
    return Tensor(arr[0] if squeezed else arr)


def _centered(outer, inner):
    """Index of an inner window centered on an outer shape's trailing two axes."""
    mh, mw = (outer[-2] - inner[-2]) // 2, (outer[-1] - inner[-1]) // 2
    return (..., slice(mh, mh + inner[-2]), slice(mw, mw + inner[-1]))


def _pad_hw(arr, padding):
    """Zero-pad the trailing two axes by (top, bottom, left, right); no copy if all 0."""
    p_t, p_b, p_l, p_r = padding
    return np.pad(arr, ((0, 0), (0, 0), (p_t, p_b), (p_l, p_r))) if any(padding) else arr


def pad_spatial(x, p_t, p_b, p_l, p_r):
    """Zero-pad the two trailing spatial axes."""
    if min(p_t, p_b, p_l, p_r) < 0:
        raise ShapeError("padding", ">= 0", (p_t, p_b, p_l, p_r))
    arr, squeezed = _batched(x)
    return _restore(_pad_hw(arr, (p_t, p_b, p_l, p_r)), squeezed)


def _blocks(b, groups, unit):
    """Near-equal (items, groups) blocks, as pairs of slices, of a
    correlation over b items and `groups` groups whose working buffers take
    `unit` bytes per item and group: one block if all fit _CACHE_BUDGET,
    else blocks of whole items if one item fits, else blocks of groups of
    one item; each at least one item of one group."""
    fit = max(1, _CACHE_BUDGET // unit)
    ng, ni = min(groups, fit), max(1, min(b, fit // groups))
    ng, ni = -(-groups // -(-groups // ng)), -(-b // -(-b // ni))
    return [(slice(i, min(i + ni, b)), slice(g, min(g + ng, groups)))
            for i in range(0, b, ni) for g in range(0, groups, ng)]


def _correlate(x, w, groups=1, stride=(1, 1)):
    """VALID grouped cross-correlation as GEMMs over copied tap windows.

    y[b, o, h, v] = sum_{c, i, j} w[o, c, i, j] * x[b, c', s_h*h + i, s_w*v + j]
    for x (B, C, H, W) and w (Co, C // groups, kH, kW), c' running over the
    channels of o's group; groups are the matmul batch axis.

    With more than one input channel per group, each tile of _tile_rows
    output rows is one GEMM of w, viewed as (groups, Co // groups,
    C // groups * kH * kW), against a copy of the tile's windows in w's
    (c, i, j) order, written straight into y; a 1x1 kernel is one GEMM on x.
    With one (depthwise, channel multiplier, pooling), a block copies its
    kH*kW rows of x flattened over (row, column), each shifted by i*W + j,
    and contracts them in one GEMM into an accumulator as wide as x, of
    which the VALID columns are kept; row tiles measured slower there.
    Either way the work runs in _blocks, so the buffers of a large map stay
    in cache, and no output's GEMM depends on the blocks. A stride splits x
    and w into phases, each a stride-1 correlation.
    """
    b, _, hgt, wid = x.shape
    co, cig, kh, kw = w.shape
    s_h, s_w = stride
    ho, wo = (hgt - kh) // s_h + 1, (wid - kw) // s_w + 1
    if (s_h, s_w) != (1, 1):
        return sum(_correlate(x[..., p::s_h, q::s_w], w[..., p::s_h, q::s_w], groups)[..., :ho, :wo]
                   for p in range(min(s_h, kh)) for q in range(min(s_w, kw)))
    dt = np.result_type(x, w)
    cog = co // groups
    if cig > 1:
        k, s = cig * kh * kw, x.strides
        wk = w.reshape(groups, cog, k)
        y = np.empty((b, groups, cog, ho * wo), dtype=dt)
        if kh == kw == 1:
            return np.matmul(wk, x.reshape(b, groups, cig, -1), out=y).reshape(b, co, ho, wo)
        # windows[b, g, c, i, j, h, v] = x[b, g * cig + c, h + i, v + j], a view
        windows = np.lib.stride_tricks.as_strided(
            x, (b, groups, cig, kh, kw, ho, wo), (s[0], cig * s[1]) + s[1:] + s[2:],
            writeable=False)
        rows = _tile_rows(k, ho, wo, dt.itemsize)
        blocks = _blocks(b, groups, k * rows * wo * dt.itemsize)
        ib, gb = blocks[0]
        buf = np.empty((ib.stop - ib.start) * (gb.stop - gb.start) * k * rows * wo, dtype=dt)
        for ib, gb in blocks:
            ni, ng = ib.stop - ib.start, gb.stop - gb.start
            for h in range(0, ho, rows):
                r = min(rows, ho - h)
                p = buf[:ni * ng * k * r * wo].reshape(ni, ng, cig, kh, kw, r, wo)
                p[...] = windows[ib, gb, ..., h:h + r, :]
                np.matmul(wk[gb], p.reshape(ni, ng, k, r * wo),
                          out=y[ib, gb, :, h * wo:(h + r) * wo])
        return y.reshape(b, co, ho, wo)
    n = ho * wid - (kw - 1)
    xf = x.reshape(b, groups, -1)
    # windows[b, g, i, j] is x's flattened row shifted by tap (i, j), a view
    # that reads only inside x, as i*W + j + n <= H*W
    s = xf.strides
    windows = np.lib.stride_tricks.as_strided(
        xf, (b, groups, kh, kw, n), s[:2] + (wid * s[2], s[2], s[2]), writeable=False)
    wt = np.ascontiguousarray(w.reshape(groups, cog, kh * kw))
    blocks = _blocks(b, groups, (kh * kw * n + cog * ho * wid) * dt.itemsize)
    ib, gb = blocks[0]
    acc = np.empty((ib.stop - ib.start, gb.stop - gb.start, cog, ho * wid), dtype=dt)
    buf = np.empty(acc.shape[:2] + (kh, kw, n), dtype=dt)
    y = np.empty((b, groups, cog, ho, wo), dtype=dt)
    for ib, gb in blocks:
        ni, ng = ib.stop - ib.start, gb.stop - gb.start
        # the accumulator's last kw - 1 columns are never written or read
        a, p = acc[:ni, :ng], buf[:ni, :ng]
        p[...] = windows[ib, gb]
        np.matmul(wt[gb], p.reshape(ni, ng, kh * kw, n), out=a[..., :n])
        y[ib, gb] = a.reshape(a.shape[:-1] + (ho, wid))[..., :wo]
    return y.reshape(b, co, ho, wo)


def _tile_rows(k, ho, wo, itemsize):
    """Output rows per GEMM of a dense or grouped correlation with ho rows
    of wo pixels: the most whose windows, k = C // groups * kH * kW values
    per pixel, fit 1 MiB, and at least one. It is fixed by the layer shape,
    not by _CACHE_BUDGET, because a BLAS GEMM may round a column differently
    at different column counts."""
    return min(ho, max(1, (1 << 20) // (k * wo * itemsize)))


def _correlate_grad_w(x, g, kh, kw, groups=1, stride=(1, 1)):
    """Weight adjoint of _correlate, d<g, _correlate(x, w, groups, stride)> / dw
    of shape (Co, C // groups, kh, kw); g may be smaller than the VALID output.

    Per block of _blocks, x is laid out as (groups, C // groups, items * H * W)
    and g zero-filled to the same positions, so tap (i, j) is one batched
    GEMM of g against x shifted by i*W + j, contracting items and space; the
    positions past g's extents add zeros. A stride splits x and dw into
    phases, each a stride-1 adjoint."""
    b, c, hgt, wid = x.shape
    co, ho, wo = g.shape[1:]
    cig, cog = c // groups, co // groups
    s_h, s_w = stride
    dt = np.result_type(x, g)
    dw = np.zeros((groups, cog, cig, kh * kw), dtype=dt)
    if (s_h, s_w) != (1, 1):
        d5 = dw.reshape(co, cig, kh, kw)
        for p in range(min(s_h, kh)):
            for q in range(min(s_w, kw)):
                d5[..., p::s_h, q::s_w] = _correlate_grad_w(
                    x[..., p::s_h, q::s_w], g, -(-(kh - p) // s_h), -(-(kw - q) // s_w), groups)
        return d5
    x4 = x.reshape(b, groups, cig, -1)
    g5 = g.reshape(b, groups, cog, ho, wo)
    n = hgt * wid - (kh - 1) * wid - (kw - 1)
    blocks = _blocks(b, groups, (cig + cog) * hgt * wid * dt.itemsize)
    ib, gb = blocks[0]
    buf = np.empty((gb.stop - gb.start) * cog * (ib.stop - ib.start) * hgt * wid, dtype=g.dtype)
    for ib, gb in blocks:
        ni, ng = ib.stop - ib.start, gb.stop - gb.start
        xb = x4[ib, gb].transpose(1, 2, 0, 3).reshape(ng, cig, -1)
        gz = buf[:ng * cog * ni * hgt * wid].reshape(ng, cog, ni, hgt, wid)
        gz.fill(0)
        gz[..., :ho, :wo] = g5[ib, gb].transpose(1, 2, 0, 3, 4)
        gf = gz.reshape(ng, cog, -1)[..., :(ni - 1) * hgt * wid + n]
        for t in range(kh * kw):
            off = t // kw * wid + t % kw
            dw[gb, ..., t] += gf @ xb[..., off:off + gf.shape[-1]].swapaxes(-1, -2)
    return dw.reshape(co, cig, kh, kw)


def conv2d_direct(x, w, geom=None, bias=None):
    """Direct grouped 2-d cross-correlation of x with kernel w.

    x is rank 3 (C, H, W) or rank 4 (B, C, H, W); w is a KernelTensor.
    Output extents are floor((H + pT + pB - kH) / sH) + 1 and likewise
    for width; out-of-range input reads are zero via explicit padding.
    Accumulation happens in the storage dtype.
    """
    if geom is None:
        geom = ConvGeometry()
    arr, squeezed = _batched(x)
    if arr.shape[1] != w.in_channels:
        raise ShapeError("channels", w.in_channels, arr.shape[1])
    if arr.dtype != w.data.dtype:
        raise ShapeError("dtype", dtype_name(w.data.dtype), dtype_name(arr.dtype))
    xp = _pad_hw(arr, geom.padding)
    if xp.shape[2] < w.kh:
        raise ShapeError("height", f">= kernel height {w.kh}", xp.shape[2])
    if xp.shape[3] < w.kw:
        raise ShapeError("width", f">= kernel width {w.kw}", xp.shape[3])
    y = _correlate(xp, w.data, w.groups, geom.stride)
    if bias is not None:
        bias = np.asarray(bias, dtype=arr.dtype)
        if bias.shape != (w.out_channels,):
            raise ShapeError("bias", (w.out_channels,), bias.shape)
        y = y + bias[None, :, None, None]
    return _restore(y, squeezed)


def add(x, y):
    """Elementwise sum of two equal-shape tensors."""
    if x.shape != y.shape:
        raise ShapeError("shape", x.shape, y.shape)
    return Tensor(x.data + y.data)


def scale_by_channel(x, gamma):
    """Multiply each channel c by gamma[c]."""
    gamma = np.asarray(gamma, dtype=x.data.dtype)
    if gamma.shape != (x.channels,):
        raise ShapeError("gamma", (x.channels,), gamma.shape)
    return Tensor(x.data * gamma[:, None, None])


def sum_over(tensors):
    """Sum a non-empty list of equal-shape, equal-dtype tensors in list
    order, into one new array."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("sum_over needs at least one tensor")
    first = tensors[0]
    for t in tensors[1:]:
        if t.shape != first.shape:
            raise ShapeError("shape", first.shape, t.shape)
        if t.dtype != first.dtype:
            raise ShapeError("dtype", first.dtype, t.dtype)
    if len(tensors) == 1:
        return first
    acc = first.data + tensors[1].data
    for t in tensors[2:]:
        np.add(acc, t.data, out=acc)
    return Tensor(acc)
