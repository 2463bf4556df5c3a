"""Shared test helpers: a seeded random block generator, the same
generator as a hypothesis strategy, an independent finite-difference
oracle that goes through the expanded evaluation, the bytes of an OKT
file with a given header, the allocation peak of one call, the check of a
documented edge (a call and the error or value it gives), and the OpenBLAS
core that a golden failure names.

The seeded generator, make_random_block, serves only two checks: the
acceptance criteria 1 and 2, which print fixed counts of blocks, and
test_gradients_match_independent_fd, whose finite differences are too slow
to run per hypothesis example. Every other randomized check of a block
draws it from block_graphs."""

import ctypes
import glob
import json
import os
import re
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

from orepa import layers as L
from orepa.dynamics import ParamSet
from orepa.okt import MAGIC
from orepa.squeeze import BlockGraph, build_branch, expanded_forward
from orepa.tensor import ConvGeometry, Tensor


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# the kinds a layer that keeps its width draws from
SQUARE_KINDS = ["conv", "gconv", "identity1x1", "scaling", "avgpool", "freqfilter",
                "depthwise", "pointwise"]


def _random_layer(src, w_in, w_out, ks):
    """A spec layer object from w_in to w_out channels."""
    if w_in == w_out:
        kind = str(src.pick(src.square_kinds))
    else:
        kind = str(src.pick(src.wider_kinds if w_out % w_in == 0 else ["conv", "pointwise"]))
    obj = {"kind": kind, "out_ch": w_out, "k": int(src.pick(ks))}
    if kind == "depthwise":
        obj["expansion"] = w_out // w_in
    if kind == "gconv":
        g = int(src.pick(_divisors(w_in)))
        obj.update(kind="conv", groups=g if w_out % g == 0 else 1)
    if kind == "scaling":
        obj["value"] = src.value()
    return obj


def _random_block(src, weight_rng, dtype, stride, max_branches, max_depth, max_ch, ks):
    """A block drawn from src: ints(lo, hi), width(max_ch, prev, out) and
    pick(options) choose its structure, from square_kinds where a layer
    keeps its width and from wider_kinds where it multiplies it (conv or
    pointwise otherwise), value() a scaling layer's value,
    scaling(out_ch) a branch scaling or None; weight_rng materializes the
    kernels."""
    in_ch = src.width(max_ch, None)
    out_ch = src.width(max_ch, in_ch, out=True)
    branches = []
    for bi in range(src.ints(1, max_branches)):
        widths = [in_ch]
        for _ in range(src.ints(1, max_depth) - 1):
            widths.append(src.width(max_ch, widths[-1]))
        widths.append(out_ch)
        depth = len(widths) - 1
        objs = [_random_layer(src, widths[i], widths[i + 1], ks) for i in range(depth)]
        specs = L.layer_specs(objs, in_ch, default_k=1)  # every object names its k
        branches.append(build_branch(specs, weight_rng, dtype=dtype,
                                     scaling=src.scaling(out_ch), name=f"b{bi}"))
    return BlockGraph(branches=branches, output_geometry=ConvGeometry(stride=stride))


def make_random_block(seed, max_branches=6, max_depth=3, max_ch=8, ks=(1, 3, 5),
                      dtype="f64", with_scaling=True, stride=(1, 1)):
    rng = np.random.default_rng(seed)
    ints = lambda lo, hi: int(rng.integers(lo, hi + 1))  # noqa: E731
    src = SimpleNamespace(
        ints=ints, width=lambda max_ch, prev, out=False: ints(1, max_ch), pick=rng.choice,
        square_kinds=SQUARE_KINDS, wider_kinds=["conv", "pointwise"],
        value=lambda: float(rng.uniform(0.3, 1.2)),
        scaling=lambda c: (rng.uniform(0.3, 1.2, size=c)
                           if with_scaling and rng.random() < 0.8 else None))
    return _random_block(src, rng, dtype, stride, max_branches, max_depth, max_ch, ks)


@st.composite
def block_graphs(draw, max_branches=4, max_depth=3, max_ch=6, ks=(1, 2, 3, 4, 5)):
    """Hypothesis strategy for BlockGraphs: every layer kind, grouped
    convolutions, odd and even extents, f64 and f32, strides 1 and 2, with
    and without branch scalings. A width often repeats the one before it,
    so that the channel-wise kinds, which keep their width, get drawn. Some
    blocks hold only grouped convs at one composite width, 4 or 6, so that
    groups strictly between 1 and the width come up often, groups 3 then 2
    at width 6 among them; others keep 2 or 3 channels until each branch's
    last layer, a depthwise one with a channel multiplier of 2 or 3. Every
    later layer takes its merge adjoint in its native layout, chunked by its
    groups and the layer before's (squeeze._merge_backward), so these draws
    reach every chunking: a dense layer, a channel-wise one with and without
    a multiplier, and grouped ones, aligned with the layer before or not."""
    mode = draw(st.sampled_from([None, None, "multiplier"] + [w for w in (4, 6) if w <= max_ch]))
    composite = mode if isinstance(mode, int) else None
    weight_rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def width(max_ch, prev, out=False):
        if composite:
            return composite
        if mode == "multiplier":  # 2 or 3 channels, kept until each branch's last layer
            if prev is None:
                return draw(st.sampled_from([2, 3]))
            return draw(st.sampled_from([m * prev for m in (2, 3) if m * prev <= max_ch])) \
                if out else prev
        return draw(st.integers(1, max_ch) if prev is None else
                    st.just(prev) | st.integers(1, max_ch))

    src = SimpleNamespace(
        ints=lambda lo, hi: draw(st.integers(lo, hi)), width=width,
        pick=lambda options: draw(st.sampled_from(list(options))),
        square_kinds=SQUARE_KINDS if composite is None else ["gconv"],
        wider_kinds=["depthwise"] if mode == "multiplier" else ["conv", "pointwise"],
        value=lambda: draw(st.floats(0.3, 1.2)),
        # from weight_rng: drawing c floats from hypothesis one by one is slow
        scaling=lambda c: weight_rng.uniform(0.3, 1.2, size=c) if draw(st.booleans()) else None)
    dtype = src.pick(["f64", "f32"])
    stride = (src.ints(1, 2), src.ints(1, 2))
    # branches center-align only at odd extents: half the blocks draw odd
    # kernels alone, so that wide blocks reach the squeeze, not a MergeError
    ks = src.pick([ks, tuple(k for k in ks if k % 2)])
    return _random_block(src, weight_rng, dtype, stride, max_branches, max_depth, max_ch, ks)


def fd_grads_via_expanded(block, x, upstream, eps=1e-6):
    """Central differences of <upstream, expanded_forward(block, x)>.

    Deliberately routed through the expanded evaluation so it shares no
    code path with the squeezed-route analytics it is used to check.
    """
    ps = ParamSet(block)
    base = ps.get_flat()
    up = upstream.data
    out = np.zeros_like(base)

    def loss():
        return float(np.sum(up * expanded_forward(block, x).data))

    for i in range(base.size):
        probe = base.copy()  # set_flat freezes its vector: a new probe each time
        probe[i] = base[i] + eps
        ps.set_flat(probe)
        hi = loss()
        probe = base.copy()
        probe[i] = base[i] - eps
        ps.set_flat(probe)
        lo = loss()
        out[i] = (hi - lo) / (2 * eps)
    ps.set_flat(base)
    return out


def rand_input(rng, block, hw=(8, 8), batch=2, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=(batch, block.in_ch) + tuple(hw)),
                  dtype=block.dtype)


def okt_bytes(header, payload=b"", **dumps):
    """An OKT file: magic, header length, json.dumps(header, **dumps), payload."""
    blob = json.dumps(header, **dumps).encode()
    return MAGIC + struct.pack("<I", len(blob)) + blob + payload


def peak_bytes(fn):
    """The tracemalloc peak of one call fn(), in bytes: numpy's buffers are
    counted exactly, so an allocation bound can be asserted on it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def check_edge(call, want):
    """call() raises an exception of want's type and exact message, if want
    is an exception, else returns want, of want's type."""
    if isinstance(want, Exception):
        with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
            call()
    else:
        got = call()
        assert got == want and type(got) is type(want)


def blas_core():
    """The core numpy's bundled OpenBLAS runs, read through ctypes from the
    library perfbench/machine.py opens; "unknown" when no such library holds
    scipy_openblas_get_corename64_."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        except OSError:
            continue
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_char_p, []
            return fn().decode()
    return "unknown"


def golden_note():
    """A golden test's failure message: each OpenBLAS core rounds its GEMMs
    differently, and the goldens hold the bytes of one."""
    return f"the goldens were written under the SkylakeX OpenBLAS core; this run's is {blas_core()}"
