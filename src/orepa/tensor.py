"""Dense NCHW tensors, convolution geometry, and a direct 2-d convolution.

Convolution here is cross-correlation (no kernel flip), the deep-learning
convention. With symmetric "same" padding the output pixel at (h, w) reads
the input window centered at (h, w), i.e. taps are offset by
k - floor((K - 1) / 2) along each spatial axis.

Two private kernels carry every convolution over feature maps: _correlate,
a strided grouped cross-correlation of a zero-padded map, and its weight
adjoint _correlate_grad_w. Both take the padding as an argument and read
it in place, so conv2d_direct hands them x as it is: each block or row
tile copies only the input rows it reads into a small zero-bordered
buffer. Only a 1x1 kernel and the strided adjoint's phases pad whole maps.

Both run in blocks of batch items or of groups (_blocks) whose working
buffers fit _CACHE_BUDGET bytes, so a large map is not streamed through
memory once per tap; a small map is one block. The buffers are allocated
per call; none outlives one. The shapes pick the forward's form: one GEMM
for a 1x1 kernel, one per block over shifted rows for a stride-1
channel-wise layout (one input channel per group), else one per tile of
output rows, fixed by the layer shape, over tap windows read at the
stride. No output's arithmetic depends on the blocks, so it keeps its
bits. The weight adjoint is one GEMM per tap and sums items and positions
block by block; a stride splits it into phases.
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


class _Array:
    """A read-only f32/f64 array as .data, with its shape and dtype name.
    A C-contiguous array of the stored dtype is kept, not copied, and made
    read-only, so the caller's array is frozen too; a view still shows
    writes through its writable base. Any other input is copied first."""

    __slots__ = ("data",)

    def __init__(self, arr):
        self.data = np.ascontiguousarray(arr)
        self.data.setflags(write=False)

    @property
    def shape(self):
        return tuple(self.data.shape)

    @property
    def dtype(self):
        return dtype_name(self.data.dtype)


class Tensor(_Array):
    """Dense feature tensor, rank 3 (C, H, W) or rank 4 (B, C, H, W). It
    keeps the array it is given and makes it read-only (see _Array)."""

    __slots__ = ()

    def __init__(self, data, dtype=None):
        super().__init__(_checked_array(data, dtype, (3, 4)))

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


class KernelTensor(_Array):
    """Convolution weight in (Co, Ci // G, kH, kW) layout with a group count.
    It keeps the array it is given and makes it read-only (see _Array)."""

    __slots__ = ("groups",)

    def __init__(self, data, groups=1, dtype=None):
        arr = _checked_array(data, dtype, (4,))
        if groups < 1 or arr.shape[0] % groups != 0:
            raise ShapeError("out_channels", f"divisible by groups={groups}", arr.shape[0])
        super().__init__(arr)
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


def _embedded(src, hw, dtype=None):
    """src zero-embedded, centered (see _centered), in a new array whose
    trailing two axes are hw, of src's dtype unless one is given."""
    out = np.zeros(src.shape[:-2] + tuple(hw), dtype=src.dtype if dtype is None else dtype)
    out[_centered(out.shape, src.shape)] = src
    return out


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
    """Near-equal blocks (item slice, group slice, items, groups) of a
    correlation over b items and `groups` groups whose working buffers take
    `unit` bytes per item and group: one block if all fit _CACHE_BUDGET,
    else blocks of whole items if one item fits, else blocks of groups of
    one item; each at least one item of one group, the first the largest."""
    fit = max(1, _CACHE_BUDGET // unit)
    ng, ni = min(groups, fit), max(1, min(b, fit // groups))
    ng, ni = -(-groups // -(-groups // ng)), -(-b // -(-b // ni))
    return [(slice(i, min(i + ni, b)), slice(g, min(g + ng, groups)),
             min(ni, b - i), min(ng, groups - g))
            for i in range(0, b, ni) for g in range(0, groups, ng)]


def _zero_bordered(dst, src, r0, p_l):
    """dst (..., R, W') filled with src's rows r0 .. r0 + R - 1, shifted right
    by p_l columns, and with zeros wherever that reads outside src (..., H, W)."""
    rows, wid = dst.shape[-2], src.shape[-1]
    lo, hi = min(rows, max(0, -r0)), max(0, min(rows, src.shape[-2] - r0))
    dst[..., :lo, :] = 0
    dst[..., hi:, :] = 0
    dst[..., lo:hi, :p_l] = 0
    dst[..., lo:hi, p_l + wid:] = 0
    dst[..., lo:hi, p_l:p_l + wid] = src[..., r0 + lo:r0 + hi, :]
    return dst


def _tile_windows(x, groups, kh, kw, ho, wo, stride):
    """windows[b, g, c, i, j, h, v] = x[b, g * cig + c, s_h * h + i, s_w * v + j], a view."""
    s, cig = x.strides, x.shape[1] // groups
    return np.lib.stride_tricks.as_strided(
        x, (x.shape[0], groups, cig, kh, kw, ho, wo),
        (s[0], cig * s[1]) + s[1:] + (stride[0] * s[2], stride[1] * s[3]), writeable=False)


def _flat_windows(xf, kh, kw, wid, n):
    """windows[b, g, i, j] = xf[b, g, i * wid + j:][:n], a view of the maps
    flattened over (row, column), each row of the map wid wide."""
    s = xf.strides
    return np.lib.stride_tricks.as_strided(
        xf, xf.shape[:2] + (kh, kw, n), s[:2] + (wid * s[2], s[2], s[2]), writeable=False)


def _correlate(x, w, groups=1, stride=(1, 1), padding=(0, 0, 0, 0)):
    """Grouped cross-correlation of x zero-padded by (top, bottom, left,
    right), as GEMMs over copied tap windows; no padded copy of x is made.

    y[b, o, h, v] = sum_{c, i, j} w[o, c, i, j] * xp[b, c', s_h*h + i, s_w*v + j]
    for xp, x (B, C, H, W) padded, and w (Co, C // groups, kH, kW), c'
    running over the channels of o's group; groups are the matmul batch
    axis. The shapes pick the form. A 1x1 kernel, in any layout and at any
    stride, is one GEMM on xp[..., ::s_h, ::s_w]. At stride 1, one input
    channel per group (depthwise, channel multiplier, pooling) copies its
    kH*kW rows of xp flattened over (row, column), each shifted by i*W + j,
    into one GEMM per block into an accumulator as wide as xp, whose VALID
    columns are kept; row tiles measured slower there. Every other
    correlation is one GEMM per tile of _tile_rows output rows against a
    copy of its windows in w's (c, i, j) order. The stride lives in the
    window view, which steps s_h rows and s_w columns per output pixel, so
    each window is copied once and written into y. The work runs in
    _blocks, so a large map's buffers stay in cache, and no output's GEMM
    depends on the blocks. Padding is read in place: the windows of a block
    (flat rows) or of a tile (row tiles) come from a small zero-bordered copy
    of the input rows they read."""
    b, _, hgt, wid = x.shape
    co, cig, kh, kw = w.shape
    s_h, s_w = stride
    p_t, p_b, p_l, p_r = padding
    hp, wp = hgt + p_t + p_b, wid + p_l + p_r
    ho, wo = (hp - kh) // s_h + 1, (wp - kw) // s_w + 1
    dt = np.result_type(x, w)
    cog, k = co // groups, cig * kh * kw
    wk = w.reshape(groups, cog, k)
    # _conv_grad_x passes channel-wise kernels as flipped views, whose
    # negative strides survive the reshape: np.matmul runs those outside BLAS
    if min(wk.strides) < 0:
        wk = np.ascontiguousarray(wk)
    y = np.empty((b, groups, cog, ho * wo), dtype=dt)
    if kh == kw == 1:
        xs = _pad_hw(x, padding)[..., ::s_h, ::s_w].reshape(b, groups, cig, -1)
        return np.matmul(wk, xs, out=y).reshape(b, co, ho, wo)
    padded = any(padding)
    if cig == 1 and (s_h, s_w) == (1, 1):
        n = ho * wp - (kw - 1)
        # windows read only inside the (padded) map, as i*W + j + n <= H*W
        windows = None if padded else _flat_windows(x.reshape(b, groups, -1), kh, kw, wid, n)
        blocks = _blocks(b, groups, (kh * kw * n + cog * ho * wp + padded * hp * wp) * dt.itemsize)
        _, _, ni, ng = blocks[0]
        buf = np.empty((ni, ng, kh, kw, n), dtype=dt)
        acc = np.empty((ni, ng, cog, ho * wp), dtype=dt)
        if padded:
            # a block's zero-bordered map, and its windows as one view
            xz = np.empty((ni, ng, hp, wp), dtype=x.dtype)
            xz_windows = _flat_windows(xz.reshape(ni, ng, -1), kh, kw, wp, n)
        for ib, gb, ni, ng in blocks:
            # the accumulator's last kw - 1 columns are never written or read
            a, p = acc[:ni, :ng], buf[:ni, :ng]
            if padded:
                _zero_bordered(xz[:ni, :ng], x[ib, gb], -p_t, p_l)
                p[...] = xz_windows[:ni, :ng]
            else:
                p[...] = windows[ib, gb]
            np.matmul(wk[gb], p.reshape(ni, ng, kh * kw, n), out=a[..., :n])
            y.reshape(b, groups, cog, ho, wo)[ib, gb] = a.reshape(ni, ng, cog, ho, wp)[..., :wo]
        return y.reshape(b, co, ho, wo)
    rows = _tile_rows(k, ho, wo, dt.itemsize)
    rin = s_h * (rows - 1) + kh  # input rows a tile reads
    windows = None if padded else _tile_windows(x, groups, kh, kw, ho, wo, stride)
    blocks = _blocks(b, groups, (k * rows * wo + padded * cig * rin * wp) * dt.itemsize)
    _, _, ni, ng = blocks[0]
    buf = np.empty(ni * ng * k * rows * wo, dtype=dt)
    if padded:
        # a tile's zero-bordered input rows, and their windows as one view
        xt = np.empty((ni, ng * cig, rin, wp), dtype=x.dtype)
        xt_windows = _tile_windows(xt, ng, kh, kw, rows, wo, stride)
    for ib, gb, ni, ng in blocks:
        for h in range(0, ho, rows):
            if padded:
                _zero_bordered(xt[:ni, :ng * cig], x[ib, gb.start * cig:gb.stop * cig],
                               s_h * h - p_t, p_l)
                tile = xt_windows[:ni, :ng, ..., :ho - h, :]
            else:
                tile = windows[ib, gb, ..., h:h + rows, :]
            p = buf[:tile.size].reshape(tile.shape)
            p[...] = tile
            np.matmul(wk[gb], p.reshape(tile.shape[:2] + (k, -1)),
                      out=y[ib, gb, :, h * wo:(h + rows) * wo])
    return y.reshape(b, co, ho, wo)


def _tile_rows(k, ho, wo, itemsize):
    """Output rows per GEMM of a dense or grouped correlation with ho rows
    of wo pixels: the most whose windows, k = C // groups * kH * kW values
    per pixel, fit 1 MiB, and at least one. It is fixed by the layer shape,
    not by _CACHE_BUDGET, because a BLAS GEMM may round a column differently
    at different column counts."""
    return min(ho, max(1, (1 << 20) // (k * wo * itemsize)))


def _correlate_grad_w(x, g, kh, kw, groups=1, stride=(1, 1), padding=(0, 0, 0, 0)):
    """Weight adjoint of _correlate,
    d<g, _correlate(x, w, groups, stride, padding)> / dw of shape
    (Co, C // groups, kh, kw); g may be smaller than the output.

    Per block of _blocks, the padded x is laid out as (groups, C // groups,
    items * H * W), a zero-bordered copy of the block when padded, and g
    zero-filled to the same positions, so tap (i, j) is one batched GEMM of
    g against x shifted by i*W + j, contracting items and space; the
    positions past g's extents add zeros. A block of one item reads g in
    place when g has the padded extents, as a 1x1 kernel's does. A stride
    pads x whole and splits it and dw into phases, each a stride-1 adjoint
    writing its own taps of dw, so nothing is summed. Only the adjoint
    keeps phases: strided tile windows, as the forward's, measured faster
    here but raised the online step's peak."""
    b, c, hgt, wid = x.shape
    co, ho, wo = g.shape[1:]
    cig, cog = c // groups, co // groups
    dt = np.result_type(x, g)
    dw = np.zeros((groups, cog, cig, kh * kw), dtype=dt)
    s_h, s_w = stride
    if (s_h, s_w) != (1, 1):
        xp, d5 = _pad_hw(x, padding), dw.reshape(co, cig, kh, kw)
        for p in range(min(s_h, kh)):
            for q in range(min(s_w, kw)):
                d5[..., p::s_h, q::s_w] = _correlate_grad_w(
                    xp[..., p::s_h, q::s_w], g, -(-(kh - p) // s_h), -(-(kw - q) // s_w), groups)
        return d5
    p_t, p_b, p_l, p_r = padding
    hp, wp = hgt + p_t + p_b, wid + p_l + p_r
    x5 = x.reshape(b, groups, cig, hgt, wid)
    g5 = g.reshape(b, groups, cog, ho, wo)
    n = hp * wp - (kh - 1) * wp - (kw - 1)
    blocks = _blocks(b, groups, (cig + cog) * hp * wp * dt.itemsize)
    _, _, ni, ng = blocks[0]
    in_place = ni == 1 and (ho, wo) == (hp, wp)
    buf = None if in_place else np.empty(ng * cog * ni * hp * wp, dtype=g.dtype)
    xz = np.empty(ng * cig * ni * hp * wp, dtype=x.dtype) if any(padding) else None
    for ib, gb, ni, ng in blocks:
        xb = x5[ib, gb].transpose(1, 2, 0, 3, 4)
        if xz is not None:
            xb = _zero_bordered(xz[:ng * cig * ni * hp * wp].reshape(ng, cig, ni, hp, wp),
                                xb, -p_t, p_l)
        xb = xb.reshape(ng, cig, -1)
        gz = g5[ib, gb].transpose(1, 2, 0, 3, 4)
        if not in_place:
            gz = _zero_bordered(buf[:ng * cog * ni * hp * wp].reshape(ng, cog, ni, hp, wp),
                                gz, 0, 0)
        gf = gz.reshape(ng, cog, -1)[..., :(ni - 1) * hp * wp + n]
        for t in range(kh * kw):
            off = t // kw * wp + t % kw
            dw[gb, ..., t] += gf @ xb[..., off:off + gf.shape[-1]].swapaxes(-1, -2)
    return dw.reshape(co, cig, kh, kw)


def _conv_grad_w(x, gout, kernel, geom):
    """d<gout, conv(x, kernel, geom)> / d kernel, native grouped shape. Of
    the kernel only its extents and groups are read, never its data."""
    return _correlate_grad_w(_batched(x)[0], _batched(gout)[0], kernel.kh, kernel.kw,
                             kernel.groups, geom.stride, geom.padding)


def _conv_grad_x(gout, kernel):
    """Input gradient of a VALID stride-1 convolution: the full correlation
    of gout with the flipped kernel, in- and out-channels swapped per group.
    _correlate reads gout's kh - 1 and kw - 1 rows and columns of zero
    border in place, so no padded copy of gout is made."""
    g, kh, kw = kernel.groups, kernel.kh, kernel.kw
    flipped = kernel.data[..., ::-1, ::-1].reshape(g, -1, kernel.in_channels_per_group, kh, kw)
    flipped = flipped.transpose(0, 2, 1, 3, 4).reshape(-1, kernel.out_channels // g, kh, kw)
    return _correlate(_batched(gout)[0], flipped, g, padding=(kh - 1, kh - 1, kw - 1, kw - 1))


def conv2d_direct(x, w, geom=None, bias=None):
    """Direct grouped 2-d cross-correlation of x with kernel w.

    x is rank 3 (C, H, W) or rank 4 (B, C, H, W); w is a KernelTensor.
    Output extents are floor((H + pT + pB - kH) / sH) + 1 and likewise
    for width; out-of-range input reads are zero, read in place.
    Accumulation happens in the storage dtype.
    """
    if geom is None:
        geom = ConvGeometry()
    arr, squeezed = _batched(x)
    if arr.shape[1] != w.in_channels:
        raise ShapeError("channels", w.in_channels, arr.shape[1])
    if arr.dtype != w.data.dtype:
        raise ShapeError("dtype", dtype_name(w.data.dtype), dtype_name(arr.dtype))
    p_t, p_b, p_l, p_r = geom.padding
    if arr.shape[2] + p_t + p_b < w.kh:
        raise ShapeError("height", f">= kernel height {w.kh}", arr.shape[2] + p_t + p_b)
    if arr.shape[3] + p_l + p_r < w.kw:
        raise ShapeError("width", f">= kernel width {w.kw}", arr.shape[3] + p_l + p_r)
    y = _correlate(arr, w.data, w.groups, geom.stride, geom.padding)
    if bias is not None:
        bias = np.asarray(bias, dtype=arr.dtype)
        if bias.shape != (w.out_channels,):
            raise ShapeError("bias", (w.out_channels,), bias.shape)
        y = y + bias[None, :, None, None]
    return _restore(y, squeezed)


def add(x, y):
    """Elementwise sum of two equal-shape, equal-dtype tensors (see sum_over)."""
    return sum_over((x, y))


def scale_by_channel(x, gamma):
    """Multiply each channel c by gamma[c]."""
    gamma = np.asarray(gamma, dtype=x.data.dtype)
    if gamma.shape != (x.channels,):
        raise ShapeError("gamma", (x.channels,), gamma.shape)
    return Tensor(x.data * gamma[:, None, None])


def sum_over(tensors):
    """Sum a non-empty iterable of equal-shape, equal-dtype tensors in order
    into one new array (a single operand comes back as itself). Operands are
    read one at a time and each is dropped once it is in the running sum."""
    it = iter(tensors)
    first = next(it, None)
    if first is None:
        raise ValueError("sum_over needs at least one tensor")
    shape, dtype, acc = first.shape, first.dtype, None
    for t in it:
        if t.shape != shape:
            raise ShapeError("shape", shape, t.shape)
        if t.dtype != dtype:
            raise ShapeError("dtype", dtype, t.dtype)
        if acc is None:
            acc, first = first.data + t.data, None
        else:
            np.add(acc, t.data, out=acc)
        del t
    return first if acc is None else Tensor(acc)
