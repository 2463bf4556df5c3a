"""Dense NCHW tensors, convolution geometry, and a direct 2-d convolution.

Convolution here is cross-correlation (no kernel flip), the deep-learning
convention. With symmetric "same" padding the output pixel at (h, w) reads
the input window centered at (h, w), i.e. taps are offset by
k - floor((K - 1) / 2) along each spatial axis.

Two private tap-loop kernels carry every convolution over feature maps:
_correlate, a VALID strided grouped cross-correlation, and its weight
adjoint _correlate_grad_w. conv2d_direct pads x and correlates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_DTYPES = {"f32": np.float32, "f64": np.float64}


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
        return self.data.shape[0] if self.data.ndim == 3 else self.data.shape[1]

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
    if x.rank == 3:
        return x.data[None], True
    return x.data, False


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


def _correlate(x, w, groups=1, stride=(1, 1)):
    """VALID grouped cross-correlation, one GEMM per kernel tap.

    y[b, o, h, v] = sum_{c, i, j} w[o, c, i, j] * x[b, c', s_h*h + i, s_w*v + j]
    for x (B, C, H, W) and w (Co, C // groups, kH, kW), c' running over the
    channels of o's group; groups are the matmul batch axis. On an image
    flattened over (row, column), tap (i, j) is a shift by i*W + j, so each
    tap multiplies a view of x into rows as wide as the input, of which the
    VALID columns are summed. A stride splits x and w into phases, each a
    stride-1 correlation.
    """
    b, _, hgt, wid = x.shape
    co, cig, kh, kw = w.shape
    s_h, s_w = stride
    ho, wo = (hgt - kh) // s_h + 1, (wid - kw) // s_w + 1
    if (s_h, s_w) != (1, 1):
        return sum(_correlate(x[..., p::s_h, q::s_w], w[..., p::s_h, q::s_w], groups)[..., :ho, :wo]
                   for p in range(min(s_h, kh)) for q in range(min(s_w, kw)))
    xf = x.reshape(b, groups, cig, -1)
    n = ho * wid - (kw - 1)
    wg = w.reshape(groups, co // groups, cig, kh, kw)
    tap = np.empty((b,) + wg.shape[:2] + (ho, wid), dtype=np.result_type(x, w))
    out = tap.reshape(tap.shape[:3] + (-1,))[..., :n]
    y = np.zeros(tap.shape[:-1] + (wo,), dtype=tap.dtype)
    for i in range(kh):
        for j in range(kw):
            wt = np.ascontiguousarray(wg[..., i, j])
            # with one input channel per group the GEMM is an outer product
            (np.multiply if cig == 1 else np.matmul)(wt, xf[..., i * wid + j:][..., :n], out=out)
            y += tap[..., :wo]
    return y.reshape(b, co, ho, wo)


def _correlate_grad_w(x, g, kh, kw, groups=1, stride=(1, 1)):
    """Weight adjoint of _correlate, d<g, _correlate(x, w, groups, stride)> / dw
    of shape (Co, C // groups, kh, kw): one GEMM per kernel tap and group,
    contracting batch and space against a strided slice of x."""
    b, c, hgt, wid = x.shape
    co, ho, wo = g.shape[1:]
    cig, cog = c // groups, co // groups
    s_h, s_w = stride
    gg = g.reshape(b, groups, cog, -1).transpose(1, 2, 0, 3).reshape(groups, cog, -1)
    xg = x.reshape(b, groups, cig, hgt, wid).transpose(1, 2, 0, 3, 4)
    dw = np.empty((groups, cog, cig, kh, kw), dtype=np.result_type(x, g))
    xs = np.empty((groups, cig, b, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            np.copyto(xs, xg[..., i:i + s_h * (ho - 1) + 1:s_h, j:j + s_w * (wo - 1) + 1:s_w])
            dw[..., i, j] = gg @ xs.reshape(groups, cig, -1).swapaxes(-1, -2)
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
    if x.rank == 3:
        return Tensor(x.data * gamma[:, None, None])
    return Tensor(x.data * gamma[None, :, None, None])


def sum_over(tensors):
    """Sum a non-empty list of equal-shape tensors in list order."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("sum_over needs at least one tensor")
    acc = tensors[0].data
    for t in tensors[1:]:
        if t.shape != tensors[0].shape:
            raise ShapeError("shape", tensors[0].shape, t.shape)
        acc = acc + t.data
    return Tensor(acc)
