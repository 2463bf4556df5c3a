import math

import numpy as np
import pytest

from orepa import layers as L
from orepa.tensor import (ConvGeometry, KernelTensor, ShapeError, Tensor, conv2d_direct,
                          scale_by_channel)

from oracles import conv2d_loop, freq_filter_loop
from util import check_edge


def test_avgpool_taps():
    w = L.materialize(L.LayerSpec("avgpool", 3, 3, k=2), 0)
    assert w.shape == (3, 1, 2, 2)
    assert w.groups == 3
    np.testing.assert_array_equal(w.data, np.full((3, 1, 2, 2), 0.25))


def test_identity_square():
    w = L.materialize(L.LayerSpec("identity1x1", 2, 2), 0)
    np.testing.assert_array_equal(w.data[:, :, 0, 0], np.eye(2))


def test_identity_grouped_matches_modulo_rule():
    w = L.materialize(L.LayerSpec("identity1x1", 4, 4, groups=2), 0)
    dense = L.as_dense(w)
    np.testing.assert_array_equal(dense.data[:, :, 0, 0], np.eye(4))


def test_identity_is_passthrough():
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-1, 1, size=(2, 3, 5, 5)))
    w = L.materialize(L.LayerSpec("identity1x1", 3, 3), 0)
    y = conv2d_direct(x, w)
    np.testing.assert_array_equal(y.data, x.data)


def test_freq_filter_closed_form():
    w = L.materialize(L.LayerSpec("freqfilter", 4, 4, k=3), 0)
    # channel 0, first row: cos(pi/6) regardless of the column index
    np.testing.assert_allclose(w.data[0, 0, 0, :], math.cos(math.pi / 6), atol=1e-15)
    want = freq_filter_loop(4, 3, 3)
    np.testing.assert_allclose(w.data, want, atol=1e-12)


@pytest.mark.parametrize("channels,k", [(4, 3), (5, 5), (2, 3), (6, 5)])
def test_freq_filter_row_constancy(channels, k):
    w = L.materialize(L.LayerSpec("freqfilter", channels, channels, k=k), 0).data
    half = channels // 2
    for c in range(channels):
        if c < half:
            for a in range(k):
                assert np.all(w[c, 0, a, :] == w[c, 0, a, 0])
        else:
            for d in range(k):
                assert np.all(w[c, 0, :, d] == w[c, 0, 0, d])
    np.testing.assert_allclose(w, freq_filter_loop(channels, k, k), atol=1e-12)


def test_scaling_kernel_equals_channel_scaling():
    rng = np.random.default_rng(1)
    gamma = 0.37
    w = L.materialize(L.LayerSpec("scaling", 3, 3, init=L.InitRule("constant", value=gamma)), 0)
    x = Tensor(rng.uniform(-1, 1, size=(3, 4, 4)))
    via_conv = conv2d_direct(x, w)
    via_scale = scale_by_channel(x, np.full(3, gamma))
    np.testing.assert_array_equal(via_conv.data, via_scale.data)


def test_avgpool_kernel_is_window_mean():
    rng = np.random.default_rng(2)
    k = 2
    x = rng.uniform(-1, 1, size=(1, 2, 6, 6))
    w = L.materialize(L.LayerSpec("avgpool", 2, 2, k=k), 0)
    got = conv2d_direct(Tensor(x), w, ConvGeometry(stride=(k, k))).data
    want = x.reshape(1, 2, 3, k, 3, k).mean(axis=(3, 5))
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_conv_init_one_sided_bounds():
    spec = L.LayerSpec("conv", 4, 8, k=3)
    w = L.materialize(spec, 123).data
    bound = L.DEFAULT_THETA / math.sqrt(4 * 3 * 3)
    assert np.all(w >= 0.0)
    assert np.all(w < bound)
    sym = L.materialize(L.LayerSpec("conv", 4, 8, k=3, init=L.InitRule(symmetric=True)), 123).data
    assert np.any(sym < 0.0)
    assert np.all(np.abs(sym) < bound)


def test_materialize_deterministic():
    spec = L.LayerSpec("depthwise", 3, 6, k=3, expansion=2)
    a = L.materialize(spec, 99).data
    b = L.materialize(spec, 99).data
    c = L.materialize(spec, 100).data
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_as_dense_depthwise_example():
    w = KernelTensor(np.array([[[[2.0]]], [[[3.0]]]]), groups=2)
    dense = L.as_dense(w)
    assert dense.groups == 1
    np.testing.assert_array_equal(dense.data[:, :, 0, 0], [[2.0, 0.0], [0.0, 3.0]])


def test_as_dense_identity_on_dense_input():
    w = KernelTensor(np.ones((2, 3, 1, 1)))
    assert L.as_dense(w) is w


def test_as_dense_preserves_conv_output():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(2, 4, 7, 7))
    w = L.materialize(L.LayerSpec("depthwise", 4, 4, k=3), 5)
    grouped = conv2d_direct(Tensor(x), w).data
    dense = conv2d_direct(Tensor(x), L.as_dense(w)).data
    assert np.max(np.abs(grouped - dense)) <= 1e-12
    # and both agree with the loop oracle on the grouped form
    want = conv2d_loop(x, np.asarray(w.data), groups=4)
    np.testing.assert_allclose(grouped, want, rtol=1e-12, atol=1e-12)


def test_depthwise_expansion_shapes():
    w = L.materialize(L.LayerSpec("depthwise", 3, 24, k=3, expansion=8), 0)
    assert w.shape == (24, 1, 3, 3)
    assert w.groups == 3


def test_kind_validation():
    with pytest.raises(Exception):
        L.LayerSpec("avgpool", 3, 4, k=2)
    with pytest.raises(Exception):
        L.LayerSpec("nonsense", 1, 1)
    with pytest.raises(Exception):
        L.LayerSpec("conv", 4, 6, k=3, groups=4)  # out_ch not divisible


@pytest.mark.parametrize("call,want", [
    (lambda: L.InitRule("foo"), ValueError("unknown init kind 'foo'")),
    (lambda: L.InitRule(theta=0), ValueError("theta must be > 0")),
    (lambda: L.LayerSpec("depthwise", 2, 5, expansion=2), ShapeError("out_ch", 4, 5)),
    (lambda: L.LayerSpec("pointwise", 2, 2, k=3), ShapeError("k", 1, 3)),
], ids=["unknown_init", "zero_theta", "depthwise_out_ch", "pointwise_k"])
def test_documented_edges(call, want):
    check_edge(call, want)


def test_trainable_defaults_follow_catalog():
    specs = L.layer_specs([{"kind": kind} for kind in L.KINDS], 2, 3)
    assert {s.kind: s.trainable for s in specs} == {
        "conv": True, "identity1x1": True, "scaling": True, "avgpool": False,
        "freqfilter": False, "depthwise": True, "pointwise": True}
    assert not L.layer_specs([{"kind": "scaling", "trainable": False}], 2, 3)[0].trainable
