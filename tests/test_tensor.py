import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orepa import tensor
from orepa.dynamics import _conv_grad_w
from orepa.tensor import (_CACHE_BUDGET, ConvGeometry, KernelTensor, ShapeError, Tensor, add,
                          _blocks, _correlate, _correlate_grad_w, conv2d_direct, pad_spatial,
                          same_padding, scale_by_channel, sum_over)

from oracles import conv2d_loop, conv_grad_w_loop


def test_scalar_product():
    x = Tensor(np.array([[[1.0]]]))
    w = KernelTensor(np.array([[[[2.0]]]]))
    y = conv2d_direct(x, w)
    assert y.shape == (1, 1, 1)
    assert y.data[0, 0, 0] == 2.0


def test_same_padded_ones_counts_zero_padding():
    x = Tensor(np.ones((1, 3, 3)))
    w = KernelTensor(np.ones((1, 1, 3, 3)))
    y = conv2d_direct(x, w, same_padding(3, 3))
    assert y.data[0, 1, 1] == 9.0
    for i, j in ((0, 0), (0, 2), (2, 0), (2, 2)):
        assert y.data[0, i, j] == 4.0


@pytest.mark.parametrize("seed", range(6))
def test_conv_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    b, ci, h, w = 2, 5, 7, 6
    groups = [1, 1, 5][seed % 3]
    co = [3, 4, 10][seed % 3]
    kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
    padding = tuple(int(p) for p in rng.integers(0, 3, size=4))
    x = rng.uniform(-1, 1, size=(b, ci, h, w))
    kern = rng.uniform(-1, 1, size=(co, ci // groups, kh, kw))
    bias = rng.uniform(-1, 1, size=co)
    got = conv2d_direct(Tensor(x), KernelTensor(kern, groups=groups),
                        ConvGeometry(stride=stride, padding=padding), bias=bias)
    want = conv2d_loop(x, kern, stride=stride, padding=padding, groups=groups, bias=bias)
    assert got.shape == want.shape
    np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)


def test_spec_random_case_against_oracle():
    # random x (2x5x5), random w (3x2x3x3), pad 1
    rng = np.random.default_rng(1234)
    x = rng.uniform(-1, 1, size=(1, 2, 5, 5))
    kern = rng.uniform(-1, 1, size=(3, 2, 3, 3))
    geom = ConvGeometry(padding=(1, 1, 1, 1))
    got = conv2d_direct(Tensor(x), KernelTensor(kern), geom)
    want = conv2d_loop(x, kern, padding=(1, 1, 1, 1))
    np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)


def test_even_kernel_allowed_in_direct_conv():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, size=(1, 2, 6, 6))
    kern = rng.uniform(-1, 1, size=(3, 2, 2, 2))
    got = conv2d_direct(Tensor(x), KernelTensor(kern))
    want = conv2d_loop(x, kern)
    np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)
    assert got.shape == (1, 3, 5, 5)


def test_depthwise_equals_per_channel_correlation():
    rng = np.random.default_rng(7)
    c, h, w, k = 4, 8, 8, 3
    x = rng.uniform(-1, 1, size=(c, h, w))
    kern = rng.uniform(-1, 1, size=(c, 1, k, k))
    got = conv2d_direct(Tensor(x), KernelTensor(kern, groups=c)).data
    for ch in range(c):
        want = np.zeros((h - k + 1, w - k + 1))
        for i in range(h - k + 1):
            for j in range(w - k + 1):
                want[i, j] = np.sum(kern[ch, 0] * x[ch, i:i + k, j:j + k])
        np.testing.assert_allclose(got[ch], want, rtol=1e-12, atol=1e-12)


def _per_channel_correlation(x, w, stride=1):
    """Channel-wise VALID correlation, one tap of one channel at a time, in
    tap order from a zero accumulator."""
    b, c, hgt, wid = x.shape
    kh, kw = w.shape[2:]
    ho, wo = (hgt - kh) // stride + 1, (wid - kw) // stride + 1
    y = np.zeros((b, c, ho, wo), dtype=x.dtype)
    for ch in range(c):
        for i in range(kh):
            for j in range(kw):
                y[:, ch] += w[ch, 0, i, j] * x[:, ch, i:i + stride * ho:stride,
                                                 j:j + stride * wo:stride]
    return y


@pytest.mark.parametrize("k", [(3, 3), (5, 5), (2, 4)], ids=["3x3", "5x5", "2x4"])
@pytest.mark.parametrize("shape,dtype", [((2, 64, 58, 58), "f64"), ((2, 61, 58, 58), "f64"),
                                         ((2, 64, 58, 58), "f32")], ids=["64", "61", "64-f32"])
def test_channelwise_conv_above_the_cache_budget_keeps_tap_order(shape, dtype, k):
    # the blocked path adds the same products in the same order, so it is
    # bit-equal to the plain per-channel loop; 61 channels leave a remainder block
    rng = np.random.default_rng(sum(shape) + sum(k))
    x = Tensor(rng.uniform(-1, 1, size=shape), dtype=dtype)
    w = KernelTensor(rng.uniform(-1, 1, size=(shape[1], 1) + k), groups=shape[1], dtype=dtype)
    ho = shape[2] - k[0] + 1
    # the forward's product and accumulator take 2 * ho * W elements per channel
    assert len(_blocks(shape[0], shape[1], 2 * ho * shape[3] * x.data.itemsize)) > 1
    got = conv2d_direct(x, w).data
    assert np.array_equal(got, _per_channel_correlation(x.data, w.data))


def test_strided_channelwise_conv_with_phases_above_the_cache_budget():
    rng = np.random.default_rng(29)
    x = rng.uniform(-1, 1, size=(2, 64, 116, 116))
    w = rng.uniform(-1, 1, size=(64, 1, 3, 3))
    # the four stride phases correlate (2, 64, 58, 58) maps with 2x2 to 1x1 taps
    assert len(_blocks(2, 64, 2 * 57 * 58 * x.itemsize)) > 1
    got = conv2d_direct(Tensor(x), KernelTensor(w, groups=64), ConvGeometry(stride=(2, 2))).data
    np.testing.assert_allclose(got, _per_channel_correlation(x, w, stride=2),
                               rtol=1e-12, atol=1e-12)


def test_dense_conv_above_the_cache_budget_equals_its_items_stacked():
    # one item's product and accumulator outgrow the budget, so the batch
    # runs item by item, each exactly as a call on that item alone
    rng = np.random.default_rng(37)
    x = rng.standard_normal((3, 64, 58, 58))
    w = KernelTensor(rng.standard_normal((64, 64, 3, 3)))
    assert len(_blocks(3, 1, 2 * 64 * 56 * 58 * x.itemsize)) == 3
    got = conv2d_direct(Tensor(x), w).data
    assert np.array_equal(got, np.stack([conv2d_direct(Tensor(item), w).data for item in x]))


@settings(max_examples=60, deadline=None)
@given(groups=st.integers(1, 3), cig=st.integers(1, 2), cog=st.integers(1, 3),
       k=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       stride=st.tuples(st.integers(1, 2), st.integers(1, 2)),
       extra=st.tuples(st.integers(0, 3), st.integers(0, 3)), batch=st.integers(1, 3),
       budget=st.sampled_from([1, 600, 4000, _CACHE_BUDGET]), seed=st.integers(0, 2 ** 16))
def test_correlation_in_any_blocks_matches_loop_oracles(groups, cig, cog, k, stride, extra,
                                                         batch, budget, seed):
    # budgets below one item's buffers split the work by items, then by
    # groups of one item; the forward keeps its bits and the weight adjoint
    # matches the loop whatever the blocks
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, groups * cig, k[0] + extra[0], k[1] + extra[1]))
    w = rng.standard_normal((groups * cog, cig) + k)
    y = _correlate(x, w, groups, stride)
    g = rng.standard_normal(y.shape)
    with mock.patch.object(tensor, "_CACHE_BUDGET", budget):
        assert np.array_equal(_correlate(x, w, groups, stride), y)
        dw = _correlate_grad_w(x, g, k[0], k[1], groups, stride)
    np.testing.assert_allclose(y, conv2d_loop(x, w, stride=stride, groups=groups),
                               rtol=1e-12, atol=1e-12)
    want = conv_grad_w_loop(x, g, k[0], k[1], stride, groups)
    assert dw.shape == want.shape
    assert np.max(np.abs(dw - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=80, deadline=None)
@given(groups=st.integers(1, 4), cig=st.integers(1, 3), mult=st.integers(1, 4),
       hw=st.tuples(st.integers(1, 5), st.integers(1, 5)),
       stride=st.tuples(st.integers(1, 2), st.integers(1, 2)), batch=st.integers(1, 2),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_correlate_matches_the_loop_oracle(groups, cig, mult, hw, stride, batch, seed, data):
    # one input channel per group takes the outer-product path, more take
    # the GEMM; mult is the count of output channels per group; the first
    # tap writes the accumulator that the later taps add to
    k = tuple(data.draw(st.integers(1, e)) for e in hw)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, groups * cig) + hw)
    w = rng.standard_normal((groups * mult, cig) + k)
    y = _correlate(x, w, groups, stride)
    want = conv2d_loop(x, w, stride=stride, groups=groups)
    assert y.shape == want.shape
    # relative to the sum of |products|, so that a cancelling sum cannot fail it
    scale = conv2d_loop(np.abs(x), np.abs(w), stride=stride, groups=groups)
    assert np.all(np.abs(y - want) <= 1e-12 * scale)


def test_channelwise_conv_and_weight_adjoint_allocate_within_the_cache_budget():
    # tracemalloc counts numpy's buffers exactly: a buffer the size of the
    # whole map per tap, or a copy of a dense input, would exceed the bounds
    rng = np.random.default_rng(31)
    x = Tensor(rng.standard_normal((2, 64, 58, 58)))
    w = KernelTensor(rng.standard_normal((64, 1, 3, 3)), groups=64)
    w_dense = KernelTensor(rng.standard_normal((64, 64, 3, 3)))
    g = rng.standard_normal((2, 64, 56, 56))
    cases = [(lambda: conv2d_direct(x, w), g.nbytes + _CACHE_BUDGET),
             (lambda: _conv_grad_w(x, g, w, ConvGeometry()), _CACHE_BUDGET),
             (lambda: _conv_grad_w(x, g, w_dense, ConvGeometry()), x.data.nbytes + _CACHE_BUDGET)]
    for op, bound in cases:
        tracemalloc.start()
        try:
            op()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_linearity_in_input_and_kernel(dtype):
    rng = np.random.default_rng(11)
    for trial in range(5):
        ci = int(rng.integers(1, 5))
        co = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        h = int(rng.integers(k, 9))
        x1 = rng.uniform(-1, 1, size=(2, ci, h, h))
        x2 = rng.uniform(-1, 1, size=(2, ci, h, h))
        kern = rng.uniform(-1, 1, size=(co, ci, k, k))
        a = 1.7
        geom = ConvGeometry(padding=(1, 1, 1, 1))
        wt = KernelTensor(kern, dtype=dtype)
        lhs = conv2d_direct(Tensor(a * x1 + x2, dtype=dtype), wt, geom).data
        rhs = (a * conv2d_direct(Tensor(x1, dtype=dtype), wt, geom).data
               + conv2d_direct(Tensor(x2, dtype=dtype), wt, geom).data)
        # tolerance scaled to 4 ulp of the accumulation bound
        eps = np.finfo(lhs.dtype).eps
        bound = ci * k * k * np.max(np.abs(a * x1 + x2)) * np.max(np.abs(kern)) * (1 + abs(a))
        assert np.max(np.abs(lhs - rhs)) <= 4 * eps * bound

        w2 = rng.uniform(-1, 1, size=kern.shape)
        lhs = conv2d_direct(Tensor(x1, dtype=dtype),
                            KernelTensor(a * kern + w2, dtype=dtype), geom).data
        rhs = (a * conv2d_direct(Tensor(x1, dtype=dtype), wt, geom).data
               + conv2d_direct(Tensor(x1, dtype=dtype), KernelTensor(w2, dtype=dtype), geom).data)
        assert np.max(np.abs(lhs - rhs)) <= 4 * eps * bound


def test_f32_agrees_with_f64():
    rng = np.random.default_rng(13)
    x = rng.uniform(-1, 1, size=(8, 32, 32))
    kern = rng.uniform(-1, 1, size=(8, 8, 3, 3))
    geom = same_padding(3, 3)
    y64 = conv2d_direct(Tensor(x, dtype="f64"), KernelTensor(kern, dtype="f64"), geom).data
    y32 = conv2d_direct(Tensor(x, dtype="f32"), KernelTensor(kern, dtype="f32"), geom).data
    rel = np.max(np.abs(y32.astype(np.float64) - y64)) / np.max(np.abs(y64))
    assert rel <= 1e-4


def test_conv_is_deterministic():
    rng = np.random.default_rng(17)
    x = Tensor(rng.uniform(-1, 1, size=(4, 6, 16, 16)))
    w = KernelTensor(rng.uniform(-1, 1, size=(5, 6, 3, 3)))
    a = conv2d_direct(x, w, same_padding(3, 3)).data
    b = conv2d_direct(x, w, same_padding(3, 3)).data
    assert a.tobytes() == b.tobytes()


def test_rank3_matches_rank4():
    rng = np.random.default_rng(19)
    x = rng.uniform(-1, 1, size=(3, 7, 7))
    w = KernelTensor(rng.uniform(-1, 1, size=(2, 3, 3, 3)))
    y3 = conv2d_direct(Tensor(x), w).data
    y4 = conv2d_direct(Tensor(x[None]), w).data
    assert y3.shape == y4.shape[1:]
    np.testing.assert_array_equal(y3, y4[0])


def test_channel_mismatch_names_axis():
    x = Tensor(np.zeros((2, 4, 4)))
    w = KernelTensor(np.zeros((1, 3, 1, 1)))
    with pytest.raises(ShapeError) as err:
        conv2d_direct(x, w)
    assert err.value.axis == "channels"


def test_kernel_larger_than_input_errors():
    x = Tensor(np.zeros((1, 2, 2)))
    w = KernelTensor(np.zeros((1, 1, 3, 3)))
    with pytest.raises(ShapeError):
        conv2d_direct(x, w)


def test_pad_spatial_examples():
    t = Tensor(np.array([[[5.0]]]))
    p = pad_spatial(t, 1, 1, 1, 1)
    assert p.shape == (1, 3, 3)
    assert p.data[0, 1, 1] == 5.0
    assert np.sum(p.data) == 5.0

    same = pad_spatial(t, 0, 0, 0, 0)
    np.testing.assert_array_equal(same.data, t.data)

    rng = np.random.default_rng(3)
    t2 = Tensor(rng.uniform(size=(2, 2, 2)))
    p2 = pad_spatial(t2, 1, 0, 0, 1)
    assert p2.shape == (2, 3, 3)
    np.testing.assert_array_equal(p2.data[:, 1:3, 0:2], t2.data)
    assert np.sum(np.abs(p2.data)) == pytest.approx(np.sum(np.abs(t2.data)))


def test_elementwise_examples():
    x = Tensor(np.array([[[1.0, 2.0]], [[3.0, 4.0]]]))
    scaled = scale_by_channel(x, [0.5, 2.0])
    np.testing.assert_array_equal(scaled.data, [[[0.5, 1.0]], [[6.0, 8.0]]])

    z = Tensor(np.zeros_like(x.data))
    np.testing.assert_array_equal(add(x, z).data, x.data)

    m = 5
    np.testing.assert_allclose(sum_over([x] * m).data, m * x.data)


def test_sum_over_adds_in_list_order_into_one_new_array():
    rng = np.random.default_rng(37)
    terms = [Tensor(rng.standard_normal((2, 3, 4, 5))) for _ in range(3)]
    before = [t.data.copy() for t in terms]
    got = sum_over(terms).data
    assert got.tobytes() == ((before[0] + before[1]) + before[2]).tobytes()
    for t, b in zip(terms, before):
        assert t.data.tobytes() == b.tobytes()
        assert not np.shares_memory(got, t.data)


def test_elementwise_shape_errors():
    x = Tensor(np.zeros((2, 2, 2)))
    with pytest.raises(ShapeError):
        add(x, Tensor(np.zeros((2, 2, 3))))
    with pytest.raises(ShapeError):
        scale_by_channel(x, [1.0, 2.0, 3.0])
    with pytest.raises(ShapeError):
        sum_over([x, x.astype("f32")])


def test_values_are_immutable():
    t = Tensor(np.ones((1, 2, 2)))
    with pytest.raises(ValueError):
        t.data[0, 0, 0] = 3.0
    w = KernelTensor(np.ones((1, 1, 1, 1)))
    with pytest.raises(ValueError):
        w.data[0, 0, 0, 0] = 3.0


def test_geometry_validation():
    with pytest.raises(ShapeError):
        ConvGeometry(stride=(0, 1))
    with pytest.raises(ShapeError):
        ConvGeometry(padding=(-1, 0, 0, 0))
