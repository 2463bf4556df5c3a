import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orepa import tensor
from orepa.tensor import (_CACHE_BUDGET, ConvGeometry, KernelTensor, ShapeError, Tensor, add,
                          _blocks, _conv_grad_w, _conv_grad_x, _tile_rows, conv2d_direct,
                          pad_spatial, same_padding, scale_by_channel, sum_over)

from oracles import conv2d_loop, conv_grad_w_loop
from util import check_edge, peak_bytes


@pytest.mark.parametrize("call,want", [
    (lambda: tensor.np_dtype("f16"),
     ValueError("unsupported dtype 'f16', expected one of ['f32', 'f64']")),
    (lambda: Tensor(np.zeros((2, 2))), ShapeError("rank", "3 or 4", 2)),
    (lambda: pad_spatial(Tensor(np.zeros((1, 2, 2))), 0, -1, 0, 0),
     ShapeError("padding", ">= 0", (0, -1, 0, 0))),
    (lambda: conv2d_direct(Tensor(np.zeros((1, 2, 2)), dtype="f32"),
                           KernelTensor(np.zeros((1, 1, 1, 1)))),
     ShapeError("dtype", "f64", "f32")),
    (lambda: conv2d_direct(Tensor(np.zeros((1, 3, 2))), KernelTensor(np.zeros((1, 1, 1, 3)))),
     ShapeError("width", ">= kernel width 3", 2)),
    (lambda: conv2d_direct(Tensor(np.zeros((1, 2, 2))), KernelTensor(np.zeros((2, 1, 1, 1))),
                           bias=[1.0]),
     ShapeError("bias", (2,), (1,))),
    (lambda: Tensor(np.arange(8).reshape(2, 2, 2)).dtype, "f64"),
    (lambda: repr(Tensor(np.zeros((1, 2, 3)))), "Tensor(shape=(1, 2, 3), dtype=f64)"),
    (lambda: repr(KernelTensor(np.zeros((4, 1, 3, 3)), groups=2, dtype="f32")),
     "KernelTensor(shape=(4, 1, 3, 3), groups=2, dtype=f32)"),
], ids=["f16", "rank_2", "negative_pad", "f32_input_f64_kernel", "narrower_than_kernel",
        "bias_length", "int_array_is_f64", "tensor_repr", "kernel_repr"])
def test_documented_edges(call, want):
    check_edge(call, want)


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


def _per_channel_correlation(x, w, stride=1):
    """Channel-wise VALID correlation, one tap of one output channel at a
    time, in tap order from a zero accumulator; output channel o reads input
    channel o // (Co // C), so w may hold a channel multiplier."""
    b, c, hgt, wid = x.shape
    kh, kw = w.shape[2:]
    ho, wo = (hgt - kh) // stride + 1, (wid - kw) // stride + 1
    y = np.zeros((b, w.shape[0], ho, wo), dtype=x.dtype)
    for o in range(w.shape[0]):
        for i in range(kh):
            for j in range(kw):
                y[:, o] += w[o, 0, i, j] * x[:, o * c // w.shape[0], i:i + stride * ho:stride,
                                                j:j + stride * wo:stride]
    return y


@pytest.mark.parametrize("k", [(3, 3), (5, 5), (2, 4)], ids=["3x3", "5x5", "2x4"])
@pytest.mark.parametrize("shape,dtype,mult", [((2, 64, 58, 58), "f64", 1),
                                              ((2, 61, 58, 58), "f64", 1),
                                              ((2, 64, 58, 58), "f32", 1),
                                              ((2, 16, 30, 30), "f64", 8)],
                         ids=["64", "61", "64-f32", "16x8"])
def test_channelwise_conv_above_the_cache_budget_keeps_tap_order(shape, dtype, mult, k):
    # each block is one GEMM over the copied tap windows, which adds the taps
    # in BLAS's order: an output keeps its bits whatever the blocks, and is
    # within kh * kw roundings of the sum of |products| of the plain
    # per-channel loop; 61 channels leave a remainder block, and mult = 8 is
    # a channel multiplier
    rng = np.random.default_rng(sum(shape) + sum(k) + mult)
    x = Tensor(rng.uniform(-1, 1, size=shape), dtype=dtype)
    w = KernelTensor(rng.uniform(-1, 1, size=(shape[1] * mult, 1) + k), groups=shape[1],
                     dtype=dtype)
    ho = shape[2] - k[0] + 1
    n = ho * shape[3] - (k[1] - 1)
    # a block's tap windows and accumulator take kh * kw * n + mult * ho * W elements
    # per item and channel
    unit = (k[0] * k[1] * n + mult * ho * shape[3]) * x.data.itemsize
    assert len(_blocks(shape[0], shape[1], unit)) > 1
    got = conv2d_direct(x, w).data
    with mock.patch.object(tensor, "_CACHE_BUDGET", 1 << 40):
        assert len(_blocks(shape[0], shape[1], unit)) == 1
        assert np.array_equal(got, conv2d_direct(x, w).data)
    scale = _per_channel_correlation(np.abs(x.data), np.abs(w.data))
    err = np.abs(got - _per_channel_correlation(x.data, w.data))
    assert np.all(err <= k[0] * k[1] * np.finfo(x.data.dtype).eps * scale)


@settings(max_examples=300, deadline=None)
@given(items=st.integers(1, 40), groups=st.integers(1, 1100), unit=st.integers(1, 1 << 22))
def test_blocks_cover_every_item_and_group_once_the_first_the_largest(items, groups, unit):
    # the kernels size their buffers from the first block, and cut each
    # block's share out of them by the counts that come with its slices
    blocks = _blocks(items, groups, unit)
    seen = np.zeros((items, groups), dtype=int)
    _, _, ni0, ng0 = blocks[0]
    for ib, gb, ni, ng in blocks:
        assert (ni, ng) == (len(range(items)[ib]), len(range(groups)[gb]))
        assert 1 <= ni <= ni0 and 1 <= ng <= ng0
        assert ni * ng * unit <= _CACHE_BUDGET or (ni, ng) == (1, 1)
        seen[ib, gb] += 1
    assert np.all(seen == 1)


def test_strided_channelwise_conv_above_the_cache_budget():
    rng = np.random.default_rng(29)
    x = rng.uniform(-1, 1, size=(2, 64, 116, 116))
    w = rng.uniform(-1, 1, size=(64, 1, 3, 3))
    # the stride-2 windows of one channel, k = 9 values for each of 57 rows
    # of 57 pixels, take 233928 bytes in one tile: a block holds 4 groups
    assert _tile_rows(9, 57, 57, x.itemsize) == 57
    assert len(_blocks(2, 64, 9 * 57 * 57 * x.itemsize)) > 1
    got = conv2d_direct(Tensor(x), KernelTensor(w, groups=64), ConvGeometry(stride=(2, 2))).data
    np.testing.assert_allclose(got, _per_channel_correlation(x, w, stride=2),
                               rtol=1e-12, atol=1e-12)


def test_dense_conv_above_the_cache_budget_equals_its_items_stacked():
    # one item's tile of tap windows fills the budget, so the batch runs
    # item by item, each exactly as a call on that item alone
    rng = np.random.default_rng(37)
    x = rng.standard_normal((3, 64, 58, 58))
    w = KernelTensor(rng.standard_normal((64, 64, 3, 3)))
    k = 64 * 3 * 3
    assert len(_blocks(3, 1, k * _tile_rows(k, 56, 56, x.itemsize) * 56 * x.itemsize)) == 3
    got = conv2d_direct(Tensor(x), w).data
    assert np.array_equal(got, np.stack([conv2d_direct(Tensor(item), w).data for item in x]))


@pytest.mark.parametrize("shape,dtype,items", [((3, 64, 48, 30), np.float64, 1),
                                                ((3, 64, 48, 30), np.float32, 2),
                                                ((4, 16, 24, 7), np.float64, 4),
                                                ((4, 16, 24, 7), np.float32, 4)])
def test_1x1_weight_adjoint_is_its_block_gemms_summed_in_order(shape, dtype, items):
    # byte for byte, one GEMM per block of _blocks over its items and
    # positions, summed in block order from zero. A block of one item, whose
    # gout is read in place, is g[b].reshape(Co, -1) @ x[b].reshape(C, -1).T,
    # so blocks of one item give that sum over b in item order
    b, c, co, hw = shape
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal((b, c, hw, hw)).astype(dtype)
    g = rng.standard_normal((b, co, hw, hw)).astype(dtype)
    assert _blocks(b, 1, (c + co) * hw * hw * x.itemsize)[0][2] == items
    want = np.zeros((co, c), dtype=dtype)
    for i in range(0, b, items):
        want += (g[i:i + items].transpose(1, 0, 2, 3).reshape(co, -1)
                 @ x[i:i + items].transpose(1, 0, 2, 3).reshape(c, -1).T)
    w = KernelTensor(np.zeros((co, c, 1, 1), dtype=dtype))
    assert _conv_grad_w(x, g, w, ConvGeometry()).tobytes() == want.tobytes()


@pytest.mark.parametrize("x_shape,w_shape,groups", [((4, 32, 30, 30), (32, 32, 3, 3), 1),
                                                    ((4, 32, 32, 32), (32, 32, 5, 5), 1),
                                                    ((2, 64, 60, 60), (64, 64, 3, 3), 1),
                                                    ((4, 32, 30, 30), (32, 16, 3, 3), 2)],
                         ids=["32-3x3", "32-5x5", "64-3x3", "32-3x3-g2"])
def test_dense_and_grouped_conv_keep_their_bits_in_any_blocks(x_shape, w_shape, groups):
    # a BLAS GEMM may round a column differently at another column count, so
    # the forward must not let the budget choose how many columns share a
    # GEMM: blocks of one item and group, of whole items, one block, and
    # one item per call all give the same bits
    rng = np.random.default_rng(sum(x_shape) + sum(w_shape))
    x = rng.standard_normal(x_shape)
    w = KernelTensor(rng.standard_normal(w_shape), groups=groups)
    want = conv2d_direct(Tensor(x), w).data
    for budget in (1, 600, 4000, 1 << 40):
        with mock.patch.object(tensor, "_CACHE_BUDGET", budget):
            assert np.array_equal(conv2d_direct(Tensor(x), w).data, want)
    assert np.array_equal(np.stack([conv2d_direct(Tensor(item), w).data for item in x]), want)


def test_dense_conv_in_row_tiles_matches_the_loop_oracle():
    # 7 output rows of 576-value windows 57 wide run as tiles of 3, 3 and 1 rows
    rng = np.random.default_rng(43)
    x = rng.standard_normal((1, 64, 9, 59))
    w = rng.standard_normal((2, 64, 3, 3))
    rows = _tile_rows(64 * 3 * 3, 7, 57, x.itemsize)
    assert 7 // rows >= 2 and 7 % rows
    got = conv2d_direct(Tensor(x), KernelTensor(w)).data
    err = np.abs(got - conv2d_loop(x, w))
    assert np.all(err <= 1e-12 * conv2d_loop(np.abs(x), np.abs(w)))


@settings(max_examples=100, deadline=None)
@given(ci=st.integers(1, 12), cog=st.integers(1, 4),
       hw=st.tuples(st.integers(1, 8), st.integers(1, 8)),
       padding=st.tuples(*[st.integers(0, 2)] * 4),
       stride=st.tuples(st.integers(1, 2), st.integers(1, 2)), batch=st.integers(1, 3),
       bias=st.booleans(), budget=st.sampled_from([1, 600, 4000, _CACHE_BUDGET]),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_correlation_in_any_blocks_matches_loop_oracles(ci, cog, hw, padding, stride, batch,
                                                         bias, budget, seed, data):
    # up to 12 channels hold up to 4 groups of up to 3; a 1x1 kernel is one
    # GEMM, one input channel per group at stride 1 is one GEMM over the
    # shifted rows, and every other correlation, strides included, is one
    # GEMM per row tile of tap windows; budgets below one item's buffers
    # split the work by items, then by groups of one item: the forward keeps
    # its bits whatever the blocks, and the weight adjoint matches the loop.
    # Both read the padding in place with the bits of a padded copy.
    groups = data.draw(st.sampled_from([d for d in range(1, ci + 1) if ci % d == 0]))
    p_t, p_b, p_l, p_r = padding
    k = (data.draw(st.integers(1, min(5, hw[0] + p_t + p_b))),
         data.draw(st.integers(1, min(5, hw[1] + p_l + p_r))))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, ci) + hw)
    w = KernelTensor(rng.standard_normal((groups * cog, ci // groups) + k), groups=groups)
    bias = rng.standard_normal(groups * cog) if bias else None
    geom = ConvGeometry(stride=stride, padding=padding)
    y = conv2d_direct(Tensor(x), w, geom, bias=bias).data
    g = rng.standard_normal(y.shape)
    xp, valid = np.pad(x, ((0, 0), (0, 0), (p_t, p_b), (p_l, p_r))), ConvGeometry(stride=stride)
    with mock.patch.object(tensor, "_CACHE_BUDGET", budget):
        assert np.array_equal(conv2d_direct(Tensor(x), w, geom, bias=bias).data, y)
        assert conv2d_direct(Tensor(xp), w, valid, bias=bias).data.tobytes() == y.tobytes()
        dw = _conv_grad_w(x, g, w, geom)
        assert _conv_grad_w(xp, g, w, valid).tobytes() == dw.tobytes()
    want = conv2d_loop(x, w.data, stride, padding, groups, bias)
    assert y.shape == want.shape
    # relative to the sum of |products|, so that a cancelling sum cannot fail it
    scale = conv2d_loop(np.abs(x), np.abs(w.data), stride, padding, groups,
                        None if bias is None else np.abs(bias))
    assert np.all(np.abs(y - want) <= 1e-12 * scale)
    want = conv_grad_w_loop(xp, g, k[0], k[1], stride, groups)
    assert dw.shape == want.shape
    assert np.max(np.abs(dw - want)) <= 1e-12 * np.max(np.abs(want))


def test_channelwise_conv_and_weight_adjoint_allocate_within_the_cache_budget():
    # tracemalloc counts numpy's buffers exactly: a buffer the size of the
    # whole map per tap, a copy of a dense input, a padded copy of a map, or
    # a product or kernel copy beside a dense accumulator would exceed the
    # bounds
    rng = np.random.default_rng(31)
    x = Tensor(rng.standard_normal((2, 64, 58, 58)))
    w = KernelTensor(rng.standard_normal((64, 1, 3, 3)), groups=64)
    w_mult = KernelTensor(rng.standard_normal((512, 1, 3, 3)), groups=64)
    w_dense = KernelTensor(rng.standard_normal((64, 64, 3, 3)))
    w_1x1 = KernelTensor(rng.standard_normal((64, 1, 1, 1)), groups=64)
    w_dense_1x1 = KernelTensor(rng.standard_normal((64, 64, 1, 1)))
    g = rng.standard_normal((2, 64, 56, 56))
    g58 = rng.standard_normal((2, 64, 58, 58))
    # same padding reads x_in (2, 64, 56, 56) with x's padded extents, but
    # in place: the padded rows a block or a tile reads are copied beside
    # its windows. A dense 3x3 tile of 4 output rows reads 6 input rows of
    # one item, 64 * 6 * 58 f64 values; the input gradient reads its kh - 1
    # border the same way, and copies the kernel flipped with its in- and
    # out-channels swapped
    x_in = Tensor(x.data[..., 1:-1, 1:-1])
    same, tile_rows_in = same_padding(3, 3), 64 * 6 * 58 * 8
    # a stride-2 3x3 reads its windows straight from x: one (2, 64, 28, 28)
    # output beside one block of them
    stride2, y_stride2 = ConvGeometry(stride=(2, 2)), g.nbytes // 4
    cases = [(lambda: conv2d_direct(x, w), g.nbytes + _CACHE_BUDGET),
             (lambda: conv2d_direct(x, w_mult), 8 * g.nbytes + _CACHE_BUDGET),
             (lambda: conv2d_direct(x_in, w, same), g.nbytes + _CACHE_BUDGET),
             (lambda: conv2d_direct(x_in, w_dense, same),
              g.nbytes + _CACHE_BUDGET + tile_rows_in),
             (lambda: conv2d_direct(x, w_dense, stride2), y_stride2 + _CACHE_BUDGET),
             (lambda: conv2d_direct(x, w, stride2), y_stride2 + _CACHE_BUDGET),
             # a 1x1 kernel is one GEMM written into its output, in any layout
             (lambda: conv2d_direct(x_in, w_1x1), g.nbytes + 4096),
             (lambda: _conv_grad_x(g, w_dense_1x1), g.nbytes + 4096),
             (lambda: _conv_grad_x(g, w), x.data.nbytes + _CACHE_BUDGET),
             (lambda: _conv_grad_x(g, w_dense),
              w_dense.data.nbytes + x.data.nbytes + _CACHE_BUDGET),
             (lambda: _conv_grad_w(x, g, w, ConvGeometry()), _CACHE_BUDGET),
             (lambda: _conv_grad_w(x, g, w_dense, ConvGeometry()), x.data.nbytes + _CACHE_BUDGET),
             # a 1x1 VALID adjoint's gout has x's extents: blocks of one item
             # read it in place, with no zero-filled copy of an item (1.72 MB)
             (lambda: _conv_grad_w(x, g58, w_dense_1x1, ConvGeometry()),
              w_dense_1x1.data.nbytes + 65536),
             # per item: g zero-filled and x zero-bordered to x's extents, each
             # half of x, beside dw and one tap's (64, 64) product
             (lambda: _conv_grad_w(x_in, g, w_dense, same),
              x.data.nbytes + w_dense.data.nbytes + 65536)]
    for op, bound in cases:
        assert peak_bytes(op) <= bound


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


def test_sum_over_reads_a_generator_one_operand_at_a_time():
    # the first operand is freed once the running sum exists, each later one
    # right after it is added: when operand i >= 2 is asked for, all before it
    # are dead. Contiguous data, so each Tensor holds the array made here.
    rng = np.random.default_rng(41)
    values = [rng.standard_normal((2, 3, 4, 5)) for _ in range(5)]
    refs = []

    def operands():
        for i, v in enumerate(values):
            if i >= 2:
                assert [r() is None for r in refs] == [True] * i, f"asking for operand {i}"
            t = Tensor(v.copy())
            refs.append(weakref.ref(t.data))
            yield t
            del t

    got = sum_over(operands())
    assert [r() is None for r in refs] == [True] * len(values)
    assert got.data.tobytes() == sum_over([Tensor(v) for v in values]).data.tobytes()


def test_sum_over_checks_each_operand_of_a_generator():
    x = Tensor(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        sum_over(t for t in [])
    with pytest.raises(ShapeError):
        sum_over(t for t in [x, x, Tensor(np.ones((2, 2, 3)))])
    with pytest.raises(ShapeError):
        sum_over(t for t in [x, x, x.astype("f32")])
    assert sum_over(t for t in [x]) is x
    assert sum_over([x]) is x


def test_elementwise_shape_errors():
    x = Tensor(np.zeros((2, 2, 2)))
    with pytest.raises(ShapeError):
        add(x, Tensor(np.zeros((2, 2, 3))))
    with pytest.raises(ShapeError):
        add(x, x.astype("f32"))
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


def test_a_tensor_keeps_its_array_without_a_copy():
    # the caller's own array turns read-only; a view still sees its base's writes
    a = np.ones((1, 2, 2))
    assert Tensor(a).data is a and not a.flags.writeable
    b = np.zeros((3, 2, 2))
    view = Tensor(b[:1])
    b[0] = 5.0
    assert view.data.max() == 5.0
    c = np.ones((2, 1, 1, 1), dtype=np.float32)
    assert KernelTensor(c, dtype="f64").data is not c and c.flags.writeable


def test_geometry_validation():
    with pytest.raises(ShapeError):
        ConvGeometry(stride=(0, 1))
    with pytest.raises(ShapeError):
        ConvGeometry(padding=(-1, 0, 0, 0))
