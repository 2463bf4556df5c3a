"""Shared test helpers: a seeded random block generator, the same
generator as a hypothesis strategy, and an independent finite-difference
oracle that goes through the expanded evaluation."""

from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st

from orepa import layers as L
from orepa.dynamics import ParamSet
from orepa.squeeze import BlockGraph, build_branch, expanded_forward
from orepa.tensor import ConvGeometry, Tensor


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# the kinds a layer that keeps its width draws from
SQUARE_KINDS = ["conv", "gconv", "identity1x1", "scaling", "avgpool", "freqfilter",
                "depthwise", "pointwise"]


def _random_layer(src, w_in, w_out, ks):
    if w_in == w_out:
        kind = src.pick(src.square_kinds)
    else:
        kind = src.pick(["conv", "pointwise"])
    k = int(src.pick(ks))
    if kind == "conv":
        return L.conv(w_in, w_out, k)
    if kind == "gconv":
        g = int(src.pick(_divisors(w_in)))
        if w_out % g:
            g = 1
        return L.conv(w_in, w_out, k, groups=g)
    if kind == "identity1x1":
        return L.identity_1x1(w_in)
    if kind == "scaling":
        return L.scaling(w_in, value=src.value())
    if kind == "avgpool":
        return L.avg_pool(w_in, k)
    if kind == "freqfilter":
        return L.freq_filter(w_in, k)
    if kind == "depthwise":
        return L.depthwise(w_in, k)
    return L.pointwise(w_in, w_out)


def _random_block(src, weight_rng, dtype, stride, max_branches, max_depth, max_ch, ks):
    """A block drawn from src: ints(lo, hi), width(max_ch, prev) and
    pick(options) choose its structure, from square_kinds where a layer
    keeps its width, value() a scaling layer's value,
    scaling(out_ch) a branch scaling or None; weight_rng materializes the
    kernels."""
    in_ch = src.width(max_ch, None)
    out_ch = src.width(max_ch, in_ch)
    branches = []
    for bi in range(src.ints(1, max_branches)):
        widths = [in_ch]
        for _ in range(src.ints(1, max_depth) - 1):
            widths.append(src.width(max_ch, widths[-1]))
        widths.append(out_ch)
        depth = len(widths) - 1
        specs = [_random_layer(src, widths[i], widths[i + 1], ks) for i in range(depth)]
        branches.append(build_branch(specs, weight_rng, dtype=dtype,
                                     scaling=src.scaling(out_ch), name=f"b{bi}"))
    return BlockGraph(branches=branches, output_geometry=ConvGeometry(stride=stride))


def make_random_block(seed, max_branches=6, max_depth=3, max_ch=8, ks=(1, 3, 5),
                      dtype="f64", with_scaling=True, stride=(1, 1)):
    rng = np.random.default_rng(seed)
    ints = lambda lo, hi: int(rng.integers(lo, hi + 1))  # noqa: E731
    src = SimpleNamespace(
        ints=ints, width=lambda max_ch, prev: ints(1, max_ch), pick=rng.choice,
        square_kinds=SQUARE_KINDS,
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
    groups strictly between 1 and the width come up often: a grouped first
    layer merges in its native layout (merge_sequential), and a grouped
    later layer gets its gradient from its dense expansion's."""
    composite = draw(st.sampled_from([None, None] + [w for w in (4, 6) if w <= max_ch]))
    src = SimpleNamespace(
        ints=lambda lo, hi: draw(st.integers(lo, hi)),
        width=lambda max_ch, prev: composite or draw(
            st.integers(1, max_ch) if prev is None else st.just(prev) | st.integers(1, max_ch)),
        pick=lambda options: draw(st.sampled_from(list(options))),
        square_kinds=SQUARE_KINDS if composite is None else ["gconv"],
        value=lambda: draw(st.floats(0.3, 1.2)),
        scaling=lambda c: draw(st.none() | st.lists(st.floats(0.3, 1.2),
                                                    min_size=c, max_size=c)))
    dtype = src.pick(["f64", "f32"])
    stride = (src.ints(1, 2), src.ints(1, 2))
    weight_rng = np.random.default_rng(src.ints(0, 2 ** 32 - 1))
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
        probe = base.copy()
        probe[i] = base[i] + eps
        ps.set_flat(probe)
        hi = loss()
        probe[i] = base[i] - eps
        ps.set_flat(probe)
        lo = loss()
        out[i] = (hi - lo) / (2 * eps)
    ps.set_flat(base)
    return out


def rand_input(rng, block, hw=(8, 8), batch=2, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=(batch, block.in_ch) + tuple(hw)),
                  dtype=block.dtype)
